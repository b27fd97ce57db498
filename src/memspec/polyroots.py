"""Holds no code.

The cleared mode polynomial is a plain coefficient array
(:func:`memspec.scalar.cleared_mode_polynomial`), and the companion-matrix
root oracle lives with the tests.  The module stays only because the
benchmark's tracer (``perfbench/tracing.py``, ``Tracer.install``) imports
``memspec.polyroots`` with no guard; it goes once the tracer stops naming it.
"""
