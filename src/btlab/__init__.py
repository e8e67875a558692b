"""btlab: invariants of truncated Barsotti-Tate groups from permutations.

A permutation pi of {1,...,h} and a signature (c, d) determine a
p-divisible group; this package computes the dimension table gamma(m) of
the automorphism schemes of its level-m truncations, the component-count
exponents c_m, the isomorphism number and the specializing height, and
verifies the closed forms against a symbolic path/cycle graph oracle.
It also carries an exact Witt-vector engine (integral sum/product/
negation laws via ghost components) and the circular-word classification
of level-1 truncations.
"""

__version__ = "0.1.0"
