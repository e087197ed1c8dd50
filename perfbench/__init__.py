"""End-to-end and per-layer benchmark of `seqalign align`; run `python3 perfbench/run.py -h`."""
