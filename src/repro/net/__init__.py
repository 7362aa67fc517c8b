"""From-scratch IPv4 substrate: addresses, prefixes, longest-prefix-match
trie and a deterministic address allocator.

The paper's Sec 2.2 filter pipeline needs IP-to-ASN mapping (CAIDA
prefix2as) and MOAS detection; this package provides the machinery those
dataset substrates are built on, without relying on ``ipaddress`` internals
for the routing-table semantics (we still accept dotted-quad strings)."""

from repro._lazy import lazy_exports

__all__ = ["IPv4Address", "IPv4Prefix", "PrefixTrie", "PrefixAllocator"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.net.ipv4": ("IPv4Address", "IPv4Prefix"),
        "repro.net.trie": ("PrefixTrie",),
        "repro.net.allocator": ("PrefixAllocator",),
    },
)
