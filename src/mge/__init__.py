"""Masked Gaussian elimination toolkit over small binary fields.

Subpackages by layer: gf (field arithmetic), tape (randomness tapes),
masking (sharings, cost counters, auxiliary gadgets), rowops
(shared-row gadgets), linalg (unmasked oracle and the masked solver),
costmodel (closed-form op and randomness counts plus the tabulated
scheme comparison), probelab (probing-model leakage checks), cli
(command line front end). The package itself exports FieldSpec and
field_new; the rest is imported from its module.
"""

from .gf import FieldSpec, field_new

__all__ = ["FieldSpec", "field_new"]

__version__ = "0.1.0"
