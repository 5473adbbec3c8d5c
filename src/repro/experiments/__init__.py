"""Experiment harnesses — one module per paper artefact.

Each module exposes ``run_*`` functions returning structured results and a
``render_*`` helper that prints the paper-shaped table.  The benchmarks in
``benchmarks/`` time these; the examples call them directly;
EXPERIMENTS.md records their output against the paper's numbers.

| Module          | Paper artefact                         |
|-----------------|----------------------------------------|
| fig7            | Figure 7 a/b/c (+ §5 one-address)      |
| fig8            | Figure 8 + the Anderson–Darling test   |
| fig9            | Figure 9 / §6 route-leak detection     |
| sklookup_perf   | §3.3 dispatch cost, Figure 4 scaling   |
| reduction       | §4.2 address-usage reduction           |
| dos             | §6 DoS k-ary search (+ A3 sweep)       |
| ttl             | §3.1/§4.4 binding-lifetime bound       |
| spillover       | §6 DC2 measurement                     |
| coloring        | §6 map colouring                       |
| dnsqps          | §4.2 answering-rate claims             |
| dnsload         | §5.2 DNS-stress reduction (extension)  |
| pageload        | §5.2 page-load decomposition (extension)|
| failover        | §3.4/§4.4 failover recovery (extension)|
| chaos_soak      | §3.4/§6 chaos campaigns vs invariants (extension)|
| bgp_convergence | §4.4/§6 convergence windows vs DNS rebind (extension)|
| flow_perf       | "Measured performance": columnar flow-engine throughput (extension)|
"""

from . import bgp_convergence, chaos_soak, coloring, dnsload, dnsqps, dos, failover, fig7, fig8, fig9, flow_perf, pageload, reduction, sklookup_perf, spillover, ttl

__all__ = [
    "bgp_convergence",
    "chaos_soak",
    "coloring",
    "dnsload",
    "dnsqps",
    "dos",
    "failover",
    "flow_perf",
    "pageload",
    "fig7",
    "fig8",
    "fig9",
    "reduction",
    "sklookup_perf",
    "spillover",
    "ttl",
]
