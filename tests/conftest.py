"""One BLAS thread, set before anything imports numpy, whatever the
environment asks for: table outputs, the golden rows and the condition
estimates the tests compare to 1e-6 depend on the thread count, and were
recorded with one.  Shared hypothesis settings: the dense-oracle
property tests build small operators and tensors, so few examples without a
deadline suffice."""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hypothesis import HealthCheck, settings  # noqa: E402

settings.register_profile("sgfem", max_examples=12, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("sgfem")
