"""Benchmark harness for tagflow: run.py is the entry point."""
