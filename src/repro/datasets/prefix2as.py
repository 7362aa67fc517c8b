"""CAIDA-style prefix-to-AS dataset.

Built from the ground-truth prefixes the topology originates, served
through a longest-prefix-match trie.  A small fraction of prefixes is
marked MOAS (announced by more than one origin AS) — the paper drops IPs in
MOAS prefixes to keep the IP-to-ASN mapping trustworthy (Sec 2.2,
"Same IP-ownership" filter).
"""

from __future__ import annotations

from repro.datasets.config import DatasetConfig
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.net.trie import PrefixTrie
from repro.topology.builder import Topology
from repro.util.rand import SeedSequenceFactory


class Prefix2AS:
    """Longest-prefix-match IP-to-origin-AS mapping."""

    def __init__(
        self,
        topology: Topology,
        config: DatasetConfig,
        seeds: SeedSequenceFactory,
    ) -> None:
        rng = seeds.rng("prefix2as.generate")
        self._trie: PrefixTrie[int] = PrefixTrie()
        asns = topology.graph.asns()
        for asys in topology.graph:
            for prefix in asys.prefixes:
                self._trie.insert(prefix, asys.asn)
                if rng.random() < config.moas_prefix_prob:
                    # a second origin also announces the prefix (MOAS)
                    other = asns[int(rng.integers(len(asns)))]
                    if other != asys.asn:
                        self._trie.insert(prefix, other)

    def lookup(self, address: IPv4Address) -> tuple[IPv4Prefix, list[int]] | None:
        """Most specific covering prefix and its origin ASNs, or None."""
        return self._trie.longest_match(address)

    def origins(self, address: IPv4Address) -> list[int]:
        """Origin ASNs of the best-matching prefix (empty if unrouted)."""
        match = self._trie.longest_match(address)
        if match is None:
            return []
        return match[1]

    def num_prefixes(self) -> int:
        """Distinct prefixes in the dataset."""
        return len(self._trie)
