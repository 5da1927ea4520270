"""circiso: Type-1 and Type-2 isomorphism structure of circulant graphs.

Connection-set orbits under unit multiplication, the theta transform family
and its Type-2 orbits, Cartesian product constructions, and an independent
isomorphism oracle that certifies every claim with an explicit vertex
bijection.
"""

__version__ = "0.1.0"
