"""The four workloads, by name.

Each module offers ``make_inputs(seed, sizing)``, ``setup(inputs, workdir)``,
``measure(system, inputs, tracer)``, ``layers(system, inputs, measured,
tracer, workdir)`` and ``teardown(system)``.
"""

from . import batch_uniform, ingest_churn, serve_open, single_skewed_cached

WORKLOADS = {
    module.NAME: module
    for module in (batch_uniform, single_skewed_cached, serve_open,
                   ingest_churn)
}
