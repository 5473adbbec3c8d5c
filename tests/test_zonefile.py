"""Master-file parsing: directives, inheritance, continuations, errors."""

import pytest

from repro.dns.records import RRType
from repro.dns.zone import Question
from repro.dns.records import DomainName
from repro.dns.zonefile import ZoneFileError, load_zone, parse_zone_text

SAMPLE = """\
$ORIGIN example.com.
$TTL 300
@       IN SOA ns1 hostmaster ( 2021010101 7200 900
                                1209600 300 )  ; multi-line SOA
        IN NS  ns1
ns1     IN A   192.0.2.53
www     600 IN A 192.0.2.1
www     IN  A  192.0.2.2          ; same owner, second address
        IN  AAAA 2001:db8::1      ; blank owner inherits www
alias   IN CNAME www
ext     IN CNAME cdn.provider.net.
txt     IN TXT "hello world" "second string"
; full comment line
abs.example.com. IN A 192.0.2.99
"""


class TestParsing:
    def test_record_count(self):
        records = parse_zone_text(SAMPLE, "example.com")
        assert len(records) == 10

    def test_soa_multiline(self):
        records = parse_zone_text(SAMPLE, "example.com")
        soa = next(r for r in records if r.rrtype == RRType.SOA)
        assert soa.rdata.serial == 2021010101
        assert soa.rdata.minimum == 300
        assert str(soa.rdata.mname) == "ns1.example.com."

    def test_relative_and_absolute_names(self):
        records = parse_zone_text(SAMPLE, "example.com")
        names = {str(r.name) for r in records}
        assert "www.example.com." in names
        assert "abs.example.com." in names
        assert "cdn.provider.net." in {
            str(r.rdata.target) for r in records if r.rrtype == RRType.CNAME
        }

    def test_ttl_inheritance_and_override(self):
        records = parse_zone_text(SAMPLE, "example.com")
        www_a = [r for r in records if str(r.name) == "www.example.com."
                 and r.rrtype == RRType.A]
        assert {r.ttl for r in www_a} == {600, 300}  # explicit + $TTL

    def test_blank_owner_inherits(self):
        records = parse_zone_text(SAMPLE, "example.com")
        aaaa = next(r for r in records if r.rrtype == RRType.AAAA)
        assert str(aaaa.name) == "www.example.com."

    def test_txt_quoted_strings(self):
        records = parse_zone_text(SAMPLE, "example.com")
        txt = next(r for r in records if r.rrtype == RRType.TXT)
        assert txt.rdata.strings == ("hello world", "second string")

    def test_origin_directive_switches(self):
        text = "$TTL 60\n$ORIGIN a.example.\nx IN A 192.0.2.1\n$ORIGIN b.example.\ny IN A 192.0.2.2\n"
        records = parse_zone_text(text, "ignored.example")
        assert str(records[0].name) == "x.a.example."
        assert str(records[1].name) == "y.b.example."


class TestErrors:
    def test_missing_ttl(self):
        with pytest.raises(ZoneFileError, match="no TTL"):
            parse_zone_text("www IN A 192.0.2.1\n", "example.com")

    def test_unterminated_quote(self):
        with pytest.raises(ZoneFileError, match="unterminated"):
            parse_zone_text('$TTL 60\nt IN TXT "oops\n', "example.com")

    def test_unbalanced_parens(self):
        with pytest.raises(ZoneFileError, match="unbalanced"):
            parse_zone_text("$TTL 60\n@ IN SOA a b ( 1 2 3 4 5\n", "example.com")
        with pytest.raises(ZoneFileError, match="unbalanced"):
            parse_zone_text("$TTL 60\n@ IN A 192.0.2.1 )\n", "example.com")

    def test_unsupported_type(self):
        # An unknown type token is reported where it is found (before any
        # recognised type keyword), with the line number attached.
        with pytest.raises(ZoneFileError, match="line 2.*'MX'"):
            parse_zone_text("$TTL 60\nx IN MX 10 mail\n", "example.com")

    def test_unsupported_class(self):
        with pytest.raises(ZoneFileError, match="unsupported class"):
            parse_zone_text("$TTL 60\nx CH A 192.0.2.1\n", "example.com")

    def test_unsupported_directive(self):
        with pytest.raises(ZoneFileError, match="unsupported directive"):
            parse_zone_text("$INCLUDE other.zone\n", "example.com")

    def test_bad_a_rdata(self):
        with pytest.raises(ZoneFileError):
            parse_zone_text("$TTL 60\nx IN A 2001:db8::1\n", "example.com")

    def test_blank_owner_first_line(self):
        with pytest.raises(ZoneFileError, match="no previous record"):
            parse_zone_text("$TTL 60\n   IN A 192.0.2.1\n", "example.com")

    def test_non_ascii_name_is_a_line_numbered_error(self):
        # The wire codec encodes names as ASCII; such a target used to load
        # and fail only when a response carrying it was encoded.
        text = "$TTL 60\nok IN A 192.0.2.1\nwww IN CNAME café.example.org.\n"
        with pytest.raises(ZoneFileError, match="line 3: bad name 'café.example.org.'.*ASCII"):
            load_zone(text, "example.org")

    def test_error_carries_line_number(self):
        try:
            parse_zone_text("$TTL 60\nok IN A 192.0.2.1\nbad IN A not-an-ip\n",
                            "example.com")
        except (ZoneFileError, ValueError) as exc:
            assert "3" in str(exc) or "not-an-ip" in str(exc)


class TestLoadZone:
    def test_loaded_zone_serves(self):
        zone = load_zone(SAMPLE, "example.com")
        result = zone.lookup(Question(DomainName.from_text("www.example.com"), RRType.A))
        assert result.found and len(result.answers) == 2

    def test_file_soa_replaces_default(self):
        zone = load_zone(SAMPLE, "example.com")
        assert zone.soa().rdata.serial == 2021010101

    def test_zone_without_soa_gets_default(self):
        zone = load_zone("$TTL 60\nwww IN A 192.0.2.1\n", "example.com")
        assert zone.soa() is not None

    def test_cname_chase_through_loaded_zone(self):
        zone = load_zone(SAMPLE, "example.com")
        result = zone.lookup(Question(DomainName.from_text("alias.example.com"), RRType.A))
        assert result.found and result.cname_chain
        assert len(result.answers) == 2
