#!/usr/bin/env bash
# The benchmark's single command; see run.py for the options and README.md
# for what it measures. Run from the repository root.
exec python3 "$(dirname "$0")/run.py" "$@"
