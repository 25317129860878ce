"""Classification of Boolean functions modulo Reed-Muller codes under the
affine general linear group, with applications: class-number tables, a
near-bent census, and covering-radius bounds from randomized coset searches.
"""

__version__ = "0.1.0"
