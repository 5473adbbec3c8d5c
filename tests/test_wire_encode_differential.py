"""Budgeted single-pass ``Message.encode(limit)`` ≡ the encode-then-trim loop it replaced.

``Message.encode`` now lays every record out once and cuts an oversize
encoding at a record boundary.  What it replaced — ``Message.encode``
without a budget, and ``AuthoritativeServer._truncated`` re-encoding the
whole message once per dropped record — is kept here as the reference,
with the name and RDATA encoders it called, so the codec under it can
change without the reference changing too.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.edns import ClientSubnet, OptRecord
from repro.dns.records import (
    A,
    AAAA,
    CNAME,
    NS,
    OPTPseudo,
    SOA,
    TXT,
    DomainName,
    ResourceRecord,
    RRType,
)
from repro.dns.wire import Message
from repro.netsim.addr import IPAddress, parse_prefix

# -- the reference: the encoder and the truncation loop as they stood ----------------


def _ref_encode_name(name, out, offsets):
    labels = name.labels
    for i in range(len(labels)):
        suffix = labels[i:]
        at = offsets.get(suffix)
        if at is not None and at <= 0x3FFF:
            out += struct.pack("!H", 0xC000 | at)
            return
        if at is None and len(out) <= 0x3FFF:
            offsets[suffix] = len(out)
        label = labels[i].encode("ascii")
        out.append(len(label))
        out += label
    out.append(0)


def _ref_encode_rdata(rdata, out, offsets):
    len_at = len(out)
    out += b"\x00\x00"
    start = len(out)
    if isinstance(rdata, (A, AAAA)):
        out += rdata.address.packed()
    elif isinstance(rdata, (CNAME, NS)):
        target = rdata.target if isinstance(rdata, CNAME) else rdata.nameserver
        _ref_encode_name(target, out, offsets)
    elif isinstance(rdata, SOA):
        _ref_encode_name(rdata.mname, out, offsets)
        _ref_encode_name(rdata.rname, out, offsets)
        out += struct.pack(
            "!IIIII", rdata.serial, rdata.refresh, rdata.retry, rdata.expire, rdata.minimum
        )
    else:
        assert isinstance(rdata, TXT)
        for s in rdata.strings:
            raw = s.encode()
            out.append(len(raw))
            out += raw
    out[len_at:len_at + 2] = struct.pack("!H", len(out) - start)


def _ref_encode(message: Message) -> bytes:
    """``Message.encode()`` as it stood, less its 64 KiB check (the
    callers here compare lengths themselves)."""
    out = bytearray()
    out += struct.pack(
        "!HHHHHH", message.id, message.flags.pack(), len(message.questions),
        len(message.answers), len(message.authority), len(message.additional),
    )
    offsets = {}
    for q in message.questions:
        _ref_encode_name(q.name, out, offsets)
        out += struct.pack("!HH", q.rrtype, q.rrclass)
    for rr in (*message.answers, *message.authority, *message.additional):
        _ref_encode_name(rr.name, out, offsets)
        if isinstance(rr.rdata, OPTPseudo):
            out += struct.pack(
                "!HHIH", RRType.OPT, rr.rdata.udp_payload_size, rr.rdata.ttl_word,
                len(rr.rdata.data),
            )
            out += rr.rdata.data
            continue
        out += struct.pack("!HHI", rr.rrtype, rr.rrclass, rr.ttl)
        _ref_encode_rdata(rr.rdata, out, offsets)
    return bytes(out)


def _ref_truncated(response: Message, limit: int) -> bytes:
    """``AuthoritativeServer._truncated`` as it stood."""
    opts = [rr for rr in response.additional if isinstance(rr.rdata, OPTPseudo)]
    extra = [rr for rr in response.additional if not isinstance(rr.rdata, OPTPseudo)]
    answers = list(response.answers)
    authority = list(response.authority)
    truncated = response._replace(flags=response.flags._replace(tc=True))
    while True:
        truncated = truncated._replace(
            answers=tuple(answers),
            authority=tuple(authority),
            additional=(*extra, *opts),
        )
        wire = _ref_encode(truncated)
        if len(wire) <= limit:
            return wire
        if extra:
            extra.pop()
        elif authority:
            authority.pop()
        elif answers:
            answers.pop()
        else:
            return wire


def _ref_wire(response: Message, limit: int) -> bytes:
    """What ``handle_wire`` sent for ``response`` under ``limit``."""
    wire = _ref_encode(response)
    return wire if len(wire) <= limit else _ref_truncated(response, limit)


# -- responses shaped as the server builds them ---------------------------------------

# Few labels and few apexes, so owner names and RDATA names share suffixes
# and compression pointers cross record (and section) boundaries.
_labels = st.lists(
    st.sampled_from(["a", "b", "www", "cdn", "ns1", "x" * 20, "y" * 63]), min_size=0, max_size=3
)
_apex = st.sampled_from([("example", "com"), ("example", "org"), ("com",), ()])
_name = st.builds(lambda labels, apex: DomainName((*labels, *apex)), _labels, _apex)
_txt = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=255)
_u32 = st.integers(0, 0xFFFFFFFF)
_rdata = st.one_of(
    st.builds(lambda v: A(IPAddress.v4(v)), _u32),
    st.builds(lambda v: AAAA(IPAddress.v6(v)), st.integers(0, 2**128 - 1)),
    st.builds(CNAME, _name),
    st.builds(NS, _name),
    st.builds(SOA, _name, _name, _u32, _u32, _u32, _u32, _u32),
    st.builds(lambda s: TXT((s,)), _txt),
)
_record = st.builds(ResourceRecord, _name, _rdata, st.integers(0, 0x7FFFFFFF))
_section = st.lists(_record, min_size=0, max_size=60).map(tuple)
_opt = st.sampled_from([
    None,
    OptRecord(udp_payload_size=1232),
    OptRecord(udp_payload_size=4096,
              client_subnet=ClientSubnet(parse_prefix("198.51.100.0/24"), scope=24)),
])
_FIXED_LIMITS = (512, 513, 600, 1232, 4096, 65535)


def _response(name, answers, authority, additional, opt) -> Message:
    if opt is not None:
        additional = (*additional, opt.record())
    return Message.query(0x1234, name, RRType.A).response(
        answers=answers, authority=authority, additional=additional
    )


@settings(max_examples=150, deadline=None)
@given(name=_name, answers=_section, authority=_section, additional=_section, opt=_opt,
       data=st.data())
def test_budgeted_encode_matches_encode_then_trim(name, answers, authority, additional,
                                                  opt, data):
    response = _response(name, answers, authority, additional, opt)
    body = (*answers, *authority, *additional)
    # The octet count at which exactly ``kept`` records (and the OPT) fit.
    kept = data.draw(st.integers(0, len(body)), label="records that fit")
    boundary = len(_ref_encode(_response(name, body[:kept], (), (), opt)))
    limit = data.draw(st.sampled_from((*_FIXED_LIMITS, boundary, boundary - 1)), label="limit")

    wire = response.encode(limit)
    assert wire == _ref_wire(response, limit)
    decoded = Message.decode(wire)
    assert decoded.flags.tc == (len(_ref_encode(response)) > limit)
    assert response.encode() == _ref_encode(response)  # no budget: the whole message


# -- the corners, spelled out ---------------------------------------------------------


def _txt_rr(owner: str, text: str) -> ResourceRecord:
    return ResourceRecord(DomainName.from_text(owner), TXT((text,)), 300)


def test_answer_crossing_the_pointer_horizon_over_tcp():
    # ~25 KiB of TXT at distinct owners: names first emitted past offset
    # 0x3FFF are written in full and never registered, before and after a cut.
    answers = tuple(_txt_rr(f"h{i:03d}.big.example.com", "x" * 200) for i in range(100))
    response = _response(DomainName.from_text("big.example.com"), answers, (), (),
                         OptRecord(udp_payload_size=1232))
    whole = response.encode(65535)
    assert len(whole) > 0x3FFF and whole == _ref_encode(response)
    assert Message.decode(whole).answers == answers
    for limit in (0x3FFF, 0x4000, 20_000):
        cut = response.encode(limit)
        assert cut == _ref_truncated(response, limit) and len(cut) <= limit
        decoded = Message.decode(cut)
        assert decoded.flags.tc
        assert decoded.answers == answers[:len(decoded.answers)]


def test_only_header_question_and_opt_fit():
    response = _response(
        DomainName.from_text("big.example.com"),
        (_txt_rr("big.example.com", "x" * 255), _txt_rr("big.example.com", "y" * 255)),
        (), (), OptRecord(udp_payload_size=512),
    )
    big_first = response._replace(answers=(
        ResourceRecord(DomainName.from_text("big.example.com"),
                       TXT(("x" * 255, "y" * 255)), 300),
    ))
    for message, limit in ((response, 300), (big_first, 512)):
        wire = message.encode(limit)
        assert wire == _ref_truncated(message, limit) and len(wire) <= limit
        decoded = Message.decode(wire)
        assert decoded.flags.tc and not decoded.answers
        assert [rr.rrtype for rr in decoded.additional] == [RRType.OPT]
    # Below even that, the three still go out: the floor is not the budget.
    assert response.encode(20) == _ref_truncated(response, 20)


def test_opt_placed_mid_additional_still_yields_a_wellformed_tc_message():
    glue = tuple(
        ResourceRecord(DomainName.from_text(f"ns{i}.example.com"), A(IPAddress.v4(i)), 60)
        for i in range(40)
    )
    opt = OptRecord(udp_payload_size=512).record()
    response = Message.query(7, "example.com", RRType.NS).response(
        additional=(*glue[:20], opt, *glue[20:])
    )
    assert len(response.encode()) > 512
    wire = response.encode(512)
    assert len(wire) <= 512
    decoded = Message.decode(wire)
    assert decoded.flags.tc
    assert 20 < len(decoded.additional) < 41  # the OPT went as any record would
    assert decoded.additional == response.additional[:len(decoded.additional)]
