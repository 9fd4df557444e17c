"""Shared hypothesis settings: the dense-oracle property tests build small
operators and tensors, so few examples without a deadline suffice."""
from hypothesis import HealthCheck, settings

settings.register_profile("sgfem", max_examples=12, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("sgfem")
