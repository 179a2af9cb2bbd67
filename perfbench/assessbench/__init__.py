"""The assess benchmark: four workloads driven through the public API.

``perfbench/run.py`` is the entry point; see its docstring for usage.
"""
