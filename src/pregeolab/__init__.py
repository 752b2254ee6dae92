"""Finite closure operators, pregeometries and ternary independence
relations, with exhaustive axiom checking at desk scale.

The package exports no names: the modules are the API, so import from
them (`pregeolab.axioms`, `pregeolab.instances`, ...).  The version
lives in `pyproject.toml`."""
