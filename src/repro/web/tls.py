"""TLS-lite: certificates, SNI, and handshakes at the level the paper needs.

§2.3: "the Server Name Indication (SNI) field in TLS allows a server to
host multiple HTTPS certificates on the same IP+port … servers can now
safely assume support for SNI."  The reproduction needs exactly the
name-selection semantics — which certificate a server presents for a given
SNI, and which hostnames a presented certificate covers (that set gates
HTTP/2 connection coalescing, Figure 8).  No cryptography is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..value import Value

__all__ = ["Certificate", "ClientHello", "CertificateStore", "TLSError"]


class TLSError(Exception):
    """Handshake failure (no certificate for the requested name)."""


def _normalize(name: str) -> str:
    """Lower-case, no trailing dot.  A name already in that form is returned
    as the same object, so the indexes below share their callers' strings
    instead of holding a copy of every certificate name."""
    normal = name.lower().rstrip(".")
    return name if normal == name else normal


@dataclass(frozen=True, slots=True)
class Certificate:
    """A served certificate: subject plus subjectAltName entries.

    CDNs pack many customer hostnames (or wildcards) into shared certs;
    ``covers`` is the check browsers run both at handshake time and when
    deciding whether an existing connection's certificate authorises a new
    request's authority (coalescing condition 1, §4.4).

    Matching is RFC 6125: exact, or single-label left-most wildcard.  The
    names are indexed once, at construction, so ``covers`` costs the same
    for a 1-name and a 100-name certificate.
    """

    subject: str
    san: tuple[str, ...] = ()
    issuer: str = "Repro CA"
    #: Every name, normalized — a wildcard pattern covers itself literally.
    _exact: frozenset[str] = field(init=False, repr=False, compare=False)
    #: ``example.com`` for each ``*.example.com`` among the names.
    _suffixes: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [_normalize(name) for name in self.names()]
        object.__setattr__(self, "_exact", frozenset(names))
        object.__setattr__(
            self, "_suffixes", frozenset(n[2:] for n in names if n.startswith("*."))
        )

    def names(self) -> tuple[str, ...]:
        return (self.subject, *self.san)

    def covers(self, hostname: str) -> bool:
        hostname = _normalize(hostname)
        if hostname in self._exact:
            return True
        head, _, parent = hostname.partition(".")
        return head != "" and parent in self._suffixes


class _ClientHelloFields(NamedTuple):
    sni: str | None
    alpn: tuple[str, ...] = ("h2", "http/1.1")


class ClientHello(Value, _ClientHelloFields):
    """The handshake fields the server dispatches on."""

    __slots__ = ()


class CertificateStore:
    """Server-side SNI → certificate selection.

    Lookup order: exact hostname, then the wildcard covering its parent
    domain (the first certificate added wins a suffix), then the default
    certificate (if configured).  Clients without SNI get
    the default or are rejected — the paper notes some providers now
    mandate SNI; ``require_sni=True`` models that stance.
    """

    def __init__(self, default: Certificate | None = None, require_sni: bool = False) -> None:
        self._exact: dict[str, Certificate] = {}
        #: ``example.com`` → the certificate carrying ``*.example.com``.
        self._wildcards: dict[str, Certificate] = {}
        self.default = default
        self.require_sni = require_sni

    def add(self, cert: Certificate) -> None:
        for name in cert.names():
            name = _normalize(name)
            if name.startswith("*."):
                self._wildcards.setdefault(name[2:], cert)
            else:
                self._exact[name] = cert

    def __len__(self) -> int:
        return len(self._exact) + len(self._wildcards)

    def select(self, hello: ClientHello) -> Certificate:
        """Pick the certificate to present for a ClientHello."""
        if hello.sni is None:
            if self.require_sni or self.default is None:
                raise TLSError("no SNI and no default certificate")
            return self.default
        sni = _normalize(hello.sni)
        cert = self._exact.get(sni)
        if cert is not None:
            return cert
        head, _, parent = sni.partition(".")
        if head:
            cert = self._wildcards.get(parent)
            if cert is not None:
                return cert
        if self.default is not None:
            return self.default
        raise TLSError(f"no certificate for SNI {hello.sni!r}")
