#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark; see README.md. All arguments go
# to run.py, e.g. `bench/e2e/run.sh --smoke` or `bench/e2e/run.sh --runs 5`.
exec python3 "$(dirname "$0")/run.py" "$@"
