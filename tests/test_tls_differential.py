"""Indexed certificate matching ≡ the per-name RFC 6125 scan it replaced.

``Certificate.covers`` and ``CertificateStore.select`` answer from
indexes built once; the scan they replaced (``_hostname_matches`` over
every name, wildcard certificates tried in insertion order) is kept here
as the reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.web.tls import Certificate, CertificateStore, ClientHello, TLSError


def _hostname_matches(pattern: str, hostname: str) -> bool:
    """RFC 6125 matching: exact, or single-label left-most wildcard."""
    pattern = pattern.lower().rstrip(".")
    hostname = hostname.lower().rstrip(".")
    if pattern == hostname:
        return True
    if pattern.startswith("*."):
        suffix = pattern[2:]
        if not suffix:
            return False
        head, sep, rest = hostname.partition(".")
        return bool(sep) and rest == suffix and head != ""
    return False


def _ref_covers(cert: Certificate, hostname: str) -> bool:
    return any(_hostname_matches(p, hostname) for p in cert.names())


class _RefStore:
    """``CertificateStore`` as it stood: exact dict, then a list scan."""

    def __init__(self, default: Certificate | None) -> None:
        self.exact: dict[str, Certificate] = {}
        self.wildcards: list[Certificate] = []
        self.default = default

    def add(self, cert: Certificate) -> None:
        for name in cert.names():
            name = name.lower().rstrip(".")
            if name.startswith("*."):
                if cert not in self.wildcards:
                    self.wildcards.append(cert)
            else:
                self.exact[name] = cert

    def select(self, sni: str) -> Certificate | None:
        sni = sni.lower().rstrip(".")
        cert = self.exact.get(sni)
        if cert is not None:
            return cert
        for candidate in self.wildcards:
            if _ref_covers(candidate, sni):
                return candidate
        return self.default


# A small alphabet, so patterns and hostnames collide often: mixed case, the
# empty label (leading/doubled/trailing dots), ``*`` in any position.
_label = st.sampled_from(["a", "b", "A", "www", "example", "Example", "com", "COM", "", "*"])
_name = st.builds(
    lambda labels, dots: ".".join(labels) + "." * dots,
    st.lists(_label, min_size=1, max_size=4),
    st.integers(0, 2),
)
_pattern = st.one_of(_name, st.sampled_from(["*.", "*", "*..", "*.com", "*.example.com."]))
_cert = st.builds(
    lambda names: Certificate(names[0], tuple(names[1:])),
    st.lists(_pattern, min_size=1, max_size=6),
)


@settings(max_examples=400, deadline=None)
@given(
    names=st.lists(_pattern, min_size=1, max_size=200),
    hostnames=st.lists(_name, min_size=1, max_size=30),
)
def test_covers_matches_the_scan(names, hostnames):
    cert = Certificate(names[0], tuple(names[1:]))
    for hostname in hostnames:
        assert cert.covers(hostname) == _ref_covers(cert, hostname), (names, hostname)


@pytest.mark.parametrize("pattern,hostname,expected", [
    ("*.example.com", "a.example.com", True),
    ("*.example.com", "A.Example.COM..", True),
    ("*.Example.com.", "a.example.com", True),
    ("*.example.com", "a.b.example.com", False),   # one label only
    ("*.example.com", "example.com", False),
    ("*.example.com", ".example.com", False),      # empty left label
    ("*.example.com", "*.example.com", True),      # the pattern, literally
    ("*.", "example.com", False),
    ("*.", "*", True),                             # normalises to the name "*"
    ("*", "a", False),
    ("*.*.com", "a.*.com", True),
    ("", ".", True),
])
def test_covers_corner_cases_agree_with_the_scan(pattern, hostname, expected):
    cert = Certificate("unrelated.test", (pattern,))
    assert _hostname_matches(pattern, hostname) is expected
    assert cert.covers(hostname) is expected


@settings(max_examples=300, deadline=None)
@given(
    certs=st.lists(_cert, min_size=0, max_size=12),
    default=st.one_of(st.none(), _cert),
    snis=st.lists(_name, min_size=1, max_size=30),
)
def test_select_matches_the_scan(certs, default, snis):
    store, ref = CertificateStore(default=default), _RefStore(default)
    for cert in certs:
        store.add(cert)
        ref.add(cert)
    for sni in snis:
        expected = ref.select(sni)
        if expected is None:
            with pytest.raises(TLSError):
                store.select(ClientHello(sni=sni))
        else:
            # Equal certificates are interchangeable (the scan deduplicated
            # its wildcard list by equality too).
            assert store.select(ClientHello(sni=sni)) == expected, (certs, sni)
