"""Authoritative DNS server skeleton with a pluggable answer source.

The paper's key DNS insight (§3.1) is that the name→address binding happens
*at the moment the response is generated*, so changing how answers are
produced requires touching nothing else: "any processing, validation, or
logging remains unchanged" (§3.2 step 2).  This module is that unchanged
scaffolding — wire decode, validation, counters, response assembly — with
the answer-production step abstracted as :class:`AnswerSource`.

Two sources exist in the repository:

* :class:`ZoneAnswerSource` — conventional Figure 3a serving from a
  :class:`~repro.dns.zone.Zone` lookup table;
* :class:`repro.core.authoritative.PolicyAnswerSource` — the paper's
  Figure 3b policy engine.

Swapping one for the other is a one-line change, which is itself a claim
the paper makes ("a drop-in software modification", §4.2) and one our tests
verify at the wire level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..netsim.addr import IPAddress
from ..value import Value
from . import edns
from .records import NS, DomainName, OPTPseudo, Question, ResourceRecord, RRClass, RRType
from .wire import Message, Opcode, Rcode, WireError
from .zone import Zone

__all__ = [
    "QueryContext",
    "Answer",
    "AnswerSource",
    "ZoneAnswerSource",
    "AuthoritativeServer",
    "ServerStats",
    "MIN_UDP_PAYLOAD",
    "MAX_MESSAGE_SIZE",
]

#: RFC 1035 §4.2.1: without EDNS the requester can only take 512 octets.
MIN_UDP_PAYLOAD = 512
#: Hard cap either way — TCP frames carry a 16-bit length (RFC 1035 §4.2.2).
MAX_MESSAGE_SIZE = 65535
#: Flags byte 2 of an encoded header: the TC bit (RFC 1035 §4.1.1).
_TC_BIT = 0x02
_ROOT = DomainName.root()


class _QueryContextFields(NamedTuple):
    pop: str
    resolver_address: IPAddress | None = None
    client_subnet: str | None = None
    transport: str = "udp"


class QueryContext(Value, _QueryContextFields):
    """Everything the serving path knows about a query besides the question.

    ``pop`` is where the (anycast-routed) query arrived; ``resolver_address``
    is the recursive resolver that sent it; ``client_subnet`` models EDNS
    Client Subnet when present.  Policy attributes (§3.2) are computed from
    these plus per-hostname account metadata.
    """

    __slots__ = ()


class _AnswerFields(NamedTuple):
    rcode: Rcode
    records: tuple[ResourceRecord, ...] = ()
    authority: tuple[ResourceRecord, ...] = ()
    additional: tuple[ResourceRecord, ...] = ()
    authoritative: bool = True


class Answer(Value, _AnswerFields):
    """What an answer source returns for one question.

    A *referral* is NOERROR with empty ``records``, the delegation's NS
    set in ``authority``, and glue in ``additional`` — how a parent zone
    points an iterative resolver at the child's servers.
    """

    __slots__ = ()


class AnswerSource:
    """Strategy interface: produce answer records for a validated question."""

    def answer(self, question: Question, context: QueryContext) -> Answer:
        raise NotImplementedError


class ZoneAnswerSource(AnswerSource):
    """Conventional serving (Figure 3a): look the name up in zone data."""

    def __init__(self, zones: list[Zone]) -> None:
        if not zones:
            raise ValueError("need at least one zone")
        self._zones = sorted(zones, key=lambda z: len(z.apex), reverse=True)

    def zone_for(self, name: DomainName) -> Zone | None:
        """Longest-suffix (most specific apex) zone match."""
        for zone in self._zones:
            if name.is_subdomain_of(zone.apex):
                return zone
        return None

    def answer(self, question: Question, context: QueryContext) -> Answer:
        zone = self.zone_for(question.name)
        if zone is None:
            return Answer(Rcode.REFUSED)

        referral = self._referral(zone, question.name)
        if referral is not None:
            return referral

        result = zone.lookup(question)
        if not result.found:
            return Answer(Rcode.NXDOMAIN, (), (zone.soa(),))
        records = (*result.cname_chain, *result.answers)
        if not records:
            # NODATA: NOERROR with SOA in authority (negative-caching signal).
            return Answer(Rcode.NOERROR, (), (zone.soa(),))
        return Answer(Rcode.NOERROR, records)

    def _referral(self, zone: Zone, name: DomainName) -> Answer | None:
        """A delegation between the zone apex and ``name`` produces a
        referral: non-authoritative NOERROR, NS in authority, glue in
        additional (RFC 1034 §4.3.2 step 3b)."""
        ancestors: list[DomainName] = []
        cursor = name
        while cursor != zone.apex and len(cursor) > len(zone.apex):
            ancestors.append(cursor)
            cursor = cursor.parent()
        for cut in reversed(ancestors):  # closest to the apex wins
            ns_set = zone.rrset(cut, RRType.NS)
            if not ns_set:
                continue
            glue: list[ResourceRecord] = []
            for ns in ns_set:
                assert isinstance(ns.rdata, NS)
                target = ns.rdata.nameserver
                if target.is_subdomain_of(zone.apex):
                    glue.extend(zone.rrset(target, RRType.A))
                    glue.extend(zone.rrset(target, RRType.AAAA))
            return Answer(
                Rcode.NOERROR,
                authority=ns_set,
                additional=tuple(glue),
                authoritative=False,
            )
        return None


@dataclass(slots=True)
class ServerStats:
    """Counters the production service would export to monitoring."""

    queries: int = 0
    responses: int = 0
    by_rcode: dict[Rcode, int] = field(default_factory=dict)
    by_type: dict[RRType, int] = field(default_factory=dict)
    formerr_drops: int = 0
    truncations: int = 0  # UDP responses trimmed + TC-flagged (RFC 2181 §9)

    def record(self, rrtype: RRType | None, rcode: Rcode) -> None:
        self.responses += 1
        self.by_rcode[rcode] = self.by_rcode.get(rcode, 0) + 1
        if rrtype is not None:
            self.by_type[rrtype] = self.by_type.get(rrtype, 0) + 1


class AuthoritativeServer:
    """The serving loop: bytes in, bytes out.

    The wire layer, validation, and accounting here are deliberately
    identical no matter which :class:`AnswerSource` is plugged in — that
    invariance *is* the experiment of §4.2.
    """

    SUPPORTED_TYPES = frozenset(
        {RRType.A, RRType.AAAA, RRType.CNAME, RRType.NS, RRType.SOA, RRType.TXT}
    )

    def __init__(self, source: AnswerSource, name: str = "authdns") -> None:
        self.source = source
        self.name = name
        self.stats = ServerStats()

    # -- wire entry point ----------------------------------------------------

    def handle_wire(self, data: bytes, context: QueryContext) -> bytes | None:
        """Process one datagram; returns response bytes (None = drop).

        UDP responses honour the client's advertised EDNS buffer size (512
        without a usable OPT, and never less): an encoding that exceeds it
        goes out as a whole-record prefix with TC set (see
        :meth:`Message.encode`), telling the client to retry over the TCP
        path (``context.transport == "tcp"``), where the only limit is the
        16-bit frame length.  The query's OPT is parsed once, here, for
        both the response and the budget.
        """
        self.stats.queries += 1
        try:
            query = Message.decode(data)
        except WireError:
            self.stats.formerr_drops += 1
            return None
        opt = self._opt_of(query)
        response = self._respond(query, context, opt)
        if context.transport != "udp":
            limit = MAX_MESSAGE_SIZE
        elif isinstance(opt, edns.OptRecord):
            limit = max(opt.udp_payload_size, MIN_UDP_PAYLOAD)
        else:
            limit = MIN_UDP_PAYLOAD
        wire = response.encode(limit)
        if wire[2] & _TC_BIT:
            self.stats.truncations += 1
        return wire

    # -- message-level entry point ---------------------------------------------

    def handle_query(self, query: Message, context: QueryContext) -> Message:
        """Process one decoded query message.

        EDNS(0): an OPT record in the query populates the context's
        ``client_subnet`` (RFC 7871) and is echoed in the response, as a
        compliant authoritative must.
        """
        return self._respond(query, context, self._opt_of(query))

    @staticmethod
    def _opt_of(query: Message) -> edns.OptRecord | WireError | None:
        """The query's OPT; the error itself when its option TLVs are
        garbage, so edns parsing never raises out of the serving loop."""
        try:
            return edns.extract_opt(query)
        except WireError as exc:
            return exc

    def _respond(
        self, query: Message, context: QueryContext, opt: edns.OptRecord | WireError | None
    ) -> Message:
        """The response to ``query``, whose OPT the caller has parsed
        (:meth:`_opt_of`); the echo OPT goes in as the response is built."""
        if query.flags.qr or not query.questions:
            self.stats.record(None, Rcode.FORMERR)
            return query.response(rcode=Rcode.FORMERR, aa=False)
        if query.flags.opcode != Opcode.QUERY:
            # IQUERY/NOTIFY/UPDATE (or anything future): well-formed but not
            # implemented here — RFC 1035 §4.1.1 NOTIMP, echoing the opcode.
            self.stats.record(None, Rcode.NOTIMP)
            return query.response(rcode=Rcode.NOTIMP, aa=False)
        if isinstance(opt, WireError):
            # The message framing decoded but the OPT option TLVs are
            # garbage (RFC 6891 §6.1.3: FORMERR).
            self.stats.record(None, Rcode.FORMERR)
            return query.response(rcode=Rcode.FORMERR, aa=False)
        subnet = None if opt is None else opt.client_subnet
        if subnet is not None:
            context = context._replace(client_subnet=str(subnet.prefix))
        question = query.questions[0]
        if question.rrclass not in (RRClass.IN, RRClass.ANY):
            self.stats.record(question.rrtype, Rcode.REFUSED)
            return query.response(rcode=Rcode.REFUSED, aa=False)
        if question.rrtype not in self.SUPPORTED_TYPES:
            self.stats.record(question.rrtype, Rcode.NOTIMP)
            return query.response(rcode=Rcode.NOTIMP, aa=False)

        answer = self.source.answer(question, context)
        self.stats.record(question.rrtype, answer.rcode)
        additional = answer.additional
        if subnet is not None:
            # The client's prefix comes back scoped to all of it.
            echo = edns.OptRecord(
                opt.udp_payload_size,
                client_subnet=edns.ClientSubnet(subnet.prefix, subnet.prefix.length),
            )
            additional = (*additional, echo.record())
        elif opt is not None:
            # A plain OPT's echo is the query's payload size, no flags and no
            # options: built from that one 16-bit number, as a tuple.
            additional = (*additional, tuple.__new__(ResourceRecord, (
                _ROOT, tuple.__new__(OPTPseudo, (opt.udp_payload_size, 0, b"")), 0, RRClass.IN,
            )))
        return query.response(
            answers=answer.records,
            authority=answer.authority,
            additional=additional,
            rcode=answer.rcode,
            aa=answer.authoritative and answer.rcode in (Rcode.NOERROR, Rcode.NXDOMAIN),
        )
