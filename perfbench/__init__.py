"""Join benchmark for the CPSJoin reproduction; see ``perfbench/README.md``."""
