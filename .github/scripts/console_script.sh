#!/usr/bin/env bash
# The installed console script's exit codes: 0 answer, 1 bad input or
# unwritable output, 2 no convergence. Run from the repository root.
set -eo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

pignistic decide --input tests/data/combat_id.json --thresholds tests/data/thresholds_standard.json --risk 0.0455
code=0; pignistic decide --input tests/data/combat_id.json --thresholds tests/data/thresholds_standard.json --risk abc || code=$?
test "$code" -eq 1
code=0; err=$(pignistic decide --input tests/data/invalid/unknown_label.json --thresholds tests/data/thresholds_standard.json --risk 0.0455 2>&1 >/dev/null) || code=$?
test "$code" -eq 1
echo "$err" | grep -F "bba document: label 'c' not in frame"
# input that cannot be read: one error line and exit 1, never a traceback
code=0; err=$(pignistic decide --input "$tmp/missing.json" --thresholds tests/data/thresholds_standard.json --risk 0.0455 2>&1 >/dev/null) || code=$?
test "$code" -eq 1
echo "$err" | grep -F "error: cannot read"
if echo "$err" | grep -F Traceback; then exit 1; fi
# a malformed mass record: the field it lacks, exit 1, never a traceback
printf '%s' '{"frame": ["a"], "masses": [{"elements": ["a"]}]}' > "$tmp/no_mass.json"
code=0; err=$(pignistic decide --input "$tmp/no_mass.json" --thresholds tests/data/thresholds_standard.json --risk 0.0455 2>&1 >/dev/null) || code=$?
test "$code" -eq 1
echo "$err" | grep -F "error: masses[0]: missing field 'mass'"
if echo "$err" | grep -F Traceback; then exit 1; fi
# elements given as an object, not a list: the record's field error, exit 1, never a traceback
printf '%s' '{"frame": ["a"], "masses": [{"elements": {"a": 1}, "mass": 1.0}]}' > "$tmp/object_elements.json"
code=0; err=$(pignistic decide --input "$tmp/object_elements.json" --thresholds tests/data/thresholds_standard.json --risk 0.0455 2>&1 >/dev/null) || code=$?
test "$code" -eq 1
echo "$err" | grep -F "error: masses[0]: field 'elements' must be list, got dict"
if echo "$err" | grep -F Traceback; then exit 1; fi
# a repeated focal set before an out-of-range mass: the first bad record wins, exit 1
printf '%s' '{"frame": ["a", "b"], "masses": [{"elements": ["a"], "mass": 0.5}, {"elements": ["a"], "mass": 0.5}, {"elements": ["b"], "mass": 2.0}]}' > "$tmp/twice.json"
code=0; err=$(pignistic decide --input "$tmp/twice.json" --thresholds tests/data/thresholds_standard.json --risk 0.0455 2>&1 >/dev/null) || code=$?
test "$code" -eq 1
echo "$err" | grep -F "bba document: focal set ('a',) assigned more than once"
if echo "$err" | grep -F Traceback; then exit 1; fi
code=0; pignistic transform --method prscp --input tests/data/combat_id.json --tolerance 1e-15 --max-iter 3 || code=$?
test "$code" -eq 2
pignistic compare --input tests/data/combat_id.json --format record
pignistic pic --input tests/data/combat_id.json --method prbl
# pic also takes a distribution document
printf '%s' '{"frame": ["a","b"], "probabilities": [0.5, 0.5]}' > "$tmp/dist.json"
out=$(pignistic pic --input "$tmp/dist.json")
test "$out" = "0.000000"
# a missing --input is a usage error in every subcommand: exit 1, never a traceback
for cmd in "transform --method betp" pic "decide --thresholds tests/data/thresholds_standard.json --risk 0.0455" compare; do
  code=0; err=$(pignistic $cmd 2>&1 >/dev/null) || code=$?
  test "$code" -eq 1
  echo "$err" | grep -F -- "--input"
  if echo "$err" | grep -F Traceback; then exit 1; fi
done
# output that cannot be written: one error line and exit 1, never a traceback
err=$( { pignistic compare --input tests/data/combat_id.json --format record | true; } 2>&1 ) || true
if echo "$err" | grep -F Traceback; then exit 1; fi
code=0; err=$(pignistic compare --input tests/data/combat_id.json --format record 2>&1 >/dev/full) || code=$?
test "$code" -eq 1
echo "$err" | grep -F "error: cannot write output"
code=0; err=$(pignistic compare --input tests/data/combat_id.json --format record 2>&1 >&-) || code=$?
test "$code" -eq 1
echo "$err" | grep -F "error: cannot write output"
if echo "$err" | grep -F Traceback; then exit 1; fi
# output that standard output's encoding cannot represent: a table exits 1, a record 0
printf '%s' '{"frame": ["\u00e9t\u00e9", "b"], "masses": [{"elements": ["\u00e9t\u00e9"], "mass": 1.0}]}' > "$tmp/ete.json"
code=0; err=$(PYTHONIOENCODING=ascii pignistic compare --input "$tmp/ete.json" 2>&1 >/dev/null) || code=$?
test "$code" -eq 1
echo "$err" | grep -F "error: cannot write output"
if echo "$err" | grep -F Traceback; then exit 1; fi
PYTHONIOENCODING=ascii pignistic compare --input "$tmp/ete.json" --format record
