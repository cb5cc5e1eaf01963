"""shortcat: a verification and construction workbench for finite short
(skew) multicategories and skew monoidal/closed categories."""

__version__ = "0.1.0"
