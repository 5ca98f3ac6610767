#!/usr/bin/env bash
# Tier-1 help smoke: `postcard_sim --help=plain` must render every option
# doc without cmdliner markup errors, and the --faults doc must keep the
# '@' of its example spec.
set -euo pipefail

sim=$1
out=$("$sim" --help=plain 2>&1)

if grep -q "cmdliner error" <<<"$out"; then
  echo "help smoke: cmdliner reported a doc markup error" >&2
  grep "cmdliner error" <<<"$out" >&2
  exit 1
fi
if ! grep -qF "link:0-1@3..5" <<<"$out"; then
  echo "help smoke: the --faults example lost its link:0-1@3..5 spec" >&2
  exit 1
fi
