"""DNS object model: names, RDATA validation, records."""

import pytest

from repro.dns.records import (
    A,
    AAAA,
    CNAME,
    NS,
    SOA,
    TXT,
    DNSNameError,
    DomainName,
    Question,
    ResourceRecord,
    RRClass,
    RRType,
)
from repro.netsim.addr import parse_address


class TestDomainName:
    def test_case_insensitive_equality(self):
        assert DomainName.from_text("WWW.Example.COM") == DomainName.from_text("www.example.com")

    def test_trailing_dot_ignored(self):
        assert DomainName.from_text("example.com.") == DomainName.from_text("example.com")

    def test_root(self):
        root = DomainName.root()
        assert root.is_root and str(root) == "."
        assert DomainName.from_text(".") == root

    def test_str_is_fqdn(self):
        assert str(DomainName.from_text("a.b.c")) == "a.b.c."

    def test_label_too_long_rejected(self):
        with pytest.raises(DNSNameError):
            DomainName.from_text("x" * 64 + ".com")

    def test_name_too_long_rejected(self):
        label = "a" * 63
        with pytest.raises(DNSNameError):
            DomainName.from_text(".".join([label] * 5))

    def test_label_length_counts_octets_not_characters(self):
        # 40 characters, 80 octets in UTF-8: over the 63-octet label limit.
        with pytest.raises(DNSNameError, match="ASCII"):
            DomainName.from_text("ü" * 40 + ".com")

    def test_non_ascii_label_rejected_where_the_name_is_built(self):
        with pytest.raises(DNSNameError, match="ASCII"):
            DomainName(("café", "example"))
        # KELVIN SIGN lower-cases to ASCII "k"; the name is still not ASCII.
        with pytest.raises(DNSNameError, match="ASCII"):
            DomainName.from_text("\u212a.example")

    def test_non_ascii_query_name_is_a_name_error_not_a_codec_crash(self):
        from repro.dns.wire import Message

        with pytest.raises(DNSNameError):
            Message.query(7, "café.example", RRType.A).encode()

    def test_empty_label_rejected(self):
        with pytest.raises(DNSNameError):
            DomainName(("a", "", "com"))

    def test_constructor_requires_lowercase(self):
        with pytest.raises(DNSNameError):
            DomainName(("WWW", "example", "com"))

    def test_subdomain_of(self):
        www = DomainName.from_text("www.example.com")
        apex = DomainName.from_text("example.com")
        assert www.is_subdomain_of(apex)
        assert apex.is_subdomain_of(apex)
        assert not apex.is_subdomain_of(www)
        assert www.is_subdomain_of(DomainName.root())

    def test_parent_and_child(self):
        n = DomainName.from_text("www.example.com")
        assert n.parent() == DomainName.from_text("example.com")
        assert n.parent().child("www") == n
        with pytest.raises(DNSNameError):
            DomainName.root().parent()

    def test_len_is_label_count(self):
        assert len(DomainName.from_text("a.b.c")) == 3
        assert len(DomainName.root()) == 0


class TestRData:
    def test_a_requires_v4(self):
        with pytest.raises(ValueError):
            A(parse_address("2001:db8::1"))
        assert A(parse_address("192.0.2.1")).rdata_text() == "192.0.2.1"

    def test_aaaa_requires_v6(self):
        with pytest.raises(ValueError):
            AAAA(parse_address("192.0.2.1"))
        assert AAAA(parse_address("2001:db8::1")).rrtype == RRType.AAAA

    def test_cname_ns_text(self):
        target = DomainName.from_text("edge.cdn.net")
        assert CNAME(target).rdata_text() == "edge.cdn.net."
        assert NS(target).rdata_text() == "edge.cdn.net."

    def test_txt_length_limit(self):
        with pytest.raises(ValueError):
            TXT(("x" * 256,))
        assert TXT(("hello", "world")).rdata_text() == '"hello" "world"'

    def test_soa_text(self):
        soa = SOA(
            DomainName.from_text("ns1.example.com"),
            DomainName.from_text("hostmaster.example.com"),
            7, 3600, 600, 86400, 300,
        )
        assert "7 3600 600 86400 300" in soa.rdata_text()


class TestResourceRecord:
    def test_ttl_range_enforced(self):
        rdata = A(parse_address("192.0.2.1"))
        name = DomainName.from_text("x.example.com")
        with pytest.raises(ValueError):
            ResourceRecord(name, rdata, ttl=-1)
        with pytest.raises(ValueError):
            ResourceRecord(name, rdata, ttl=1 << 31)

    def test_with_ttl(self):
        rr = ResourceRecord(DomainName.from_text("x.com"), A(parse_address("1.2.3.4")), 300)
        assert rr.with_ttl(10).ttl == 10
        assert rr.ttl == 300  # original untouched

    def test_rrtype_from_rdata(self):
        rr = ResourceRecord(DomainName.from_text("x.com"), A(parse_address("1.2.3.4")), 300)
        assert rr.rrtype == RRType.A

    def test_str_presentation(self):
        rr = ResourceRecord(DomainName.from_text("x.com"), A(parse_address("1.2.3.4")), 60)
        assert str(rr) == "x.com. 60 IN A 1.2.3.4"

    def test_question_str(self):
        q = Question(DomainName.from_text("x.com"), RRType.AAAA)
        assert str(q) == "x.com. IN AAAA"
        assert q.rrclass == RRClass.IN
