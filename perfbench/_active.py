"""Holder of the tracer that span wrappers report to.

A separate module so that a wrapper copied into a Ray worker (the engine's
modules are pickled by value, wrapped attributes included) finds this
module's fresh copy there, where no tracer is active, and passes through.
"""

tracer = None
