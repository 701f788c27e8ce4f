"""Segment-engine benchmark harness (see perf/README.md).

Everything here measures the product from outside: it calls public
functions of ``repro`` and reads public stats objects, and nothing under
``src/`` imports it.
"""
