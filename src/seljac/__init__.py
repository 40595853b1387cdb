"""seljac: endomorphism-algebra bookkeeping for jacobians of superelliptic
curves y^q = f(x) with q a prime power coprime to n = deg f.

The package computes the eigenvalue lattice of the order-q automorphism,
the cyclotomic decomposition of the jacobian up to isogeny, the predicted
endomorphism algebra for doubly transitive Galois groups, the multiplier
obstruction that rules out extra symmetries, Galois classification of
cubics and quartics over Q and over function fields, j-invariant tooling
for the elliptic quotients, the two-chart smooth model, and the mod-p
commutants of permutation groups on the sum-zero module of the roots.

Import from the submodules (`seljac.poly`, `seljac.galois`, `seljac.cli`, ...).
"""

__version__ = "0.1.0"
