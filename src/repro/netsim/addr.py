"""Integer-backed IP address and prefix algebra.

The paper's core mechanism — "given a prefix of length ``b``, generate a
random bitstring of ``32 - b`` (IPv4) or ``128 - b`` (IPv6) and respond with
the concatenation" (§3.2) — is executed on every DNS query.  At the
deployment's rates (thousands of answers per second) the address math sits
on the hot path, so this module represents addresses as plain integers with
a family tag rather than wrapping :mod:`ipaddress` objects.  Conversions to
and from dotted-quad / RFC 5952 text exist for presentation and parsing
only.

Everything here is a value type: hashable, ordered within a family, and
immutable.
"""

from __future__ import annotations

import ipaddress
import random
from dataclasses import dataclass
from collections.abc import Iterator
from typing import NamedTuple

from ..value import Value

__all__ = [
    "IPv4",
    "IPv6",
    "IPAddress",
    "Prefix",
    "AddressFamilyError",
    "parse_address",
    "parse_prefix",
]

#: Address family constants, matching socket.AF_* spirit without importing
#: the socket module (this is a simulator; no real sockets are opened).
IPv4 = 4
IPv6 = 6

_BITS = {IPv4: 32, IPv6: 128}
_MAX = {IPv4: (1 << 32) - 1, IPv6: (1 << 128) - 1}


class AddressFamilyError(ValueError):
    """Raised when IPv4 and IPv6 values are mixed, or a family tag is bad."""


def _check_family(family: int) -> int:
    if family not in _BITS:
        raise AddressFamilyError(f"unknown address family: {family!r}")
    return family


class _IPAddressFields(NamedTuple):
    family: int
    value: int


class IPAddress(Value, _IPAddressFields):
    """A single IP address: an integer plus a family tag.

    >>> a = IPAddress.from_text("192.0.2.1")
    >>> a.family, a.value
    (4, 3221225985)
    >>> str(a)
    '192.0.2.1'
    """

    __slots__ = ()

    def __new__(cls, family: int, value: int) -> "IPAddress":
        _check_family(family)
        if not 0 <= value <= _MAX[family]:
            raise ValueError(f"address value {value:#x} out of range for IPv{family}")
        return tuple.__new__(cls, (family, value))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "IPAddress":
        """Parse dotted-quad IPv4 or RFC 4291 IPv6 text."""
        addr = ipaddress.ip_address(text)
        family = IPv4 if addr.version == 4 else IPv6
        return cls(family, int(addr))

    @classmethod
    def v4(cls, value: int) -> "IPAddress":
        return cls(IPv4, value)

    @classmethod
    def v6(cls, value: int) -> "IPAddress":
        return cls(IPv6, value)

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        if self.family == IPv4:
            return str(ipaddress.IPv4Address(self.value))
        return str(ipaddress.IPv6Address(self.value))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IPAddress({str(self)!r})"

    # -- packing (used by the DNS wire codec) ------------------------------

    @property
    def bits(self) -> int:
        """Address width in bits (32 or 128)."""
        return _BITS[self.family]

    def packed(self) -> bytes:
        """Network byte order bytes: 4 for IPv4, 16 for IPv6."""
        return self.value.to_bytes(self.bits // 8, "big")

    @classmethod
    def from_packed(cls, data: bytes) -> "IPAddress":
        if len(data) == 4:
            return cls(IPv4, int.from_bytes(data, "big"))
        if len(data) == 16:
            return cls(IPv6, int.from_bytes(data, "big"))
        raise ValueError(f"packed address must be 4 or 16 bytes, got {len(data)}")


@dataclass(frozen=True, slots=True)
class Prefix:
    """A CIDR prefix: the address pool abstraction of §3.2.

    A prefix with length ``b`` holds ``2**(bits - b)`` addresses.  The paper
    assigns a prefix to a *policy*; answering a query means drawing a random
    suffix and concatenating (:meth:`random_address`).

    >>> p = Prefix.from_text("192.0.2.0/24")
    >>> p.num_addresses
    256
    >>> p.contains(IPAddress.from_text("192.0.2.77"))
    True
    """

    family: int
    network: int
    length: int

    def __post_init__(self) -> None:
        _check_family(self.family)
        bits = _BITS[self.family]
        if not 0 <= self.length <= bits:
            raise ValueError(f"prefix length {self.length} out of range for IPv{self.family}")
        if self.network & self.host_mask():
            raise ValueError(
                f"network {self.network:#x} has host bits set for /{self.length}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` or ``xx::/len`` text (strict: no host bits)."""
        net = ipaddress.ip_network(text, strict=True)
        family = IPv4 if net.version == 4 else IPv6
        return cls(family, int(net.network_address), net.prefixlen)

    @classmethod
    def of(cls, address: IPAddress, length: int) -> "Prefix":
        """The /length prefix containing ``address``."""
        bits = _BITS[address.family]
        if not 0 <= length <= bits:
            raise ValueError(f"prefix length {length} out of range")
        mask = ((1 << length) - 1) << (bits - length) if length else 0
        return cls(address.family, address.value & mask, length)

    @classmethod
    def host(cls, address: IPAddress) -> "Prefix":
        """The single-address (/32 or /128) prefix for ``address``."""
        return cls(address.family, address.value, _BITS[address.family])

    # -- geometry ----------------------------------------------------------

    @property
    def bits(self) -> int:
        return _BITS[self.family]

    @property
    def suffix_bits(self) -> int:
        """Number of free host bits — the paper's random bitstring width."""
        return self.bits - self.length

    @property
    def num_addresses(self) -> int:
        return 1 << self.suffix_bits

    def net_mask(self) -> int:
        if self.length == 0:
            return 0
        return ((1 << self.length) - 1) << self.suffix_bits

    def host_mask(self) -> int:
        return (1 << self.suffix_bits) - 1

    @property
    def first(self) -> IPAddress:
        return IPAddress(self.family, self.network)

    @property
    def last(self) -> IPAddress:
        return IPAddress(self.family, self.network | self.host_mask())

    # -- membership & relations --------------------------------------------

    def contains(self, item: "IPAddress | Prefix") -> bool:
        """True if an address, or an entire sub-prefix, lies inside us."""
        if isinstance(item, IPAddress):
            if item.family != self.family:
                return False
            return (item.value & self.net_mask()) == self.network
        if isinstance(item, Prefix):
            if item.family != self.family or item.length < self.length:
                return False
            return (item.network & self.net_mask()) == self.network
        raise TypeError(f"cannot test containment of {type(item).__name__}")

    def __contains__(self, item: "IPAddress | Prefix") -> bool:
        return self.contains(item)

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two prefixes share any address."""
        if other.family != self.family:
            return False
        return self.contains(other.first) or other.contains(self.first)

    # -- address generation (the §3.2 mechanism) ----------------------------

    def random_address(self, rng: random.Random) -> IPAddress:
        """Draw one uniform random address from the pool.

        This is step (4)+(5) of the paper's DNS procedure: generate a random
        bitstring of ``suffix_bits`` bits and append it to the prefix.  For a
        /32 (or /128) pool this degenerates to the single address — the §5
        "one address to serve them all" configuration — with no special case.
        """
        suffix = rng.getrandbits(self.suffix_bits) if self.suffix_bits else 0
        # Inside a valid prefix by construction: built without a re-check.
        return tuple.__new__(IPAddress, (self.family, self.network | suffix))

    def address_at(self, index: int) -> IPAddress:
        """The ``index``-th address in the pool (0-based); supports negatives."""
        n = self.num_addresses
        if not -n <= index < n:
            raise IndexError(f"index {index} out of range for /{self.length} pool")
        return IPAddress(self.family, self.network | (index % n))

    def index_of(self, address: IPAddress) -> int:
        """Inverse of :meth:`address_at`; raises if outside the pool."""
        if not self.contains(address):
            raise ValueError(f"{address} is not in {self}")
        return address.value & self.host_mask()

    def addresses(self) -> Iterator[IPAddress]:
        """Iterate every address in the pool. Refuses pools wider than 2^20."""
        if self.suffix_bits > 20:
            raise ValueError(
                f"refusing to enumerate 2^{self.suffix_bits} addresses; "
                "use random_address or address_at"
            )
        for i in range(self.num_addresses):
            yield IPAddress(self.family, self.network | i)

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Split into sub-prefixes of ``new_length`` (must not be shorter)."""
        if new_length < self.length:
            raise ValueError(f"cannot split /{self.length} into shorter /{new_length}")
        if new_length > self.bits:
            raise ValueError(f"/{new_length} longer than address width")
        if new_length - self.length > 20:
            raise ValueError("refusing to enumerate more than 2^20 subnets")
        step = 1 << (self.bits - new_length)
        for i in range(1 << (new_length - self.length)):
            yield Prefix(self.family, self.network + i * step, new_length)

    def supernet(self, new_length: int) -> "Prefix":
        """The enclosing prefix of ``new_length`` (must not be longer)."""
        if new_length > self.length:
            raise ValueError(f"supernet /{new_length} longer than /{self.length}")
        return Prefix.of(self.first, new_length)

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        return f"{IPAddress(self.family, self.network)}/{self.length}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Prefix({str(self)!r})"


def parse_address(text: str) -> IPAddress:
    """Module-level convenience alias for :meth:`IPAddress.from_text`."""
    return IPAddress.from_text(text)


def parse_prefix(text: str) -> Prefix:
    """Module-level convenience alias for :meth:`Prefix.from_text`."""
    return Prefix.from_text(text)
