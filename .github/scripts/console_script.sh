#!/usr/bin/env bash
# The installed console script's exit codes: 0 answer, 1 bad input or
# unwritable output, 2 no convergence. Run from the repository root.
set -eo pipefail
combat=(--input tests/data/combat_id.json)
standard=(--thresholds tests/data/thresholds_standard.json --risk 0.0455)

# fails CODE MESSAGE ARGS...: `pignistic ARGS` exits CODE, writes MESSAGE to
# standard error and no traceback. Standard output goes to descriptor $fd (4).
# It exits itself: set -e skips a failed test in a && list or a condition.
exec 4>/dev/null 5>/dev/full
fails() {
  local want=$1 message=$2 code=0 err; shift 2
  err=$(pignistic "$@" 2>&1 >&"${fd:-4}") || code=$?
  [[ $code == "$want" && $err == *"$message"* && $err != *Traceback* ]] && return
  printf 'pignistic %s: exit %s, want %s, "%s" and no traceback; stderr:\n%s\n' "$*" "$code" "$want" "$message" "$err" >&2
  exit 1
}

# answers
pignistic decide "${combat[@]}" "${standard[@]}"
pignistic compare "${combat[@]}" --format record
pignistic pic "${combat[@]}" --method prbl
test "$(pignistic pic --input <(printf '%s' '{"frame": ["a","b"], "probabilities": [0.5, 0.5]}'))" = "0.000000"  # pic also takes a distribution

# no convergence, a usage error, and input that cannot be read
fails 2 "error: no certified fixed point" transform --method prscp "${combat[@]}" --tolerance 1e-15 --max-iter 3
fails 1 "error: argument --risk: invalid float value: 'abc'" decide "${combat[@]}" --thresholds tests/data/thresholds_standard.json --risk abc
fails 1 "error: cannot read" decide --input /nonexistent/missing.json "${standard[@]}"
for cmd in "transform --method betp" pic "decide ${standard[*]}" compare; do
  fails 1 "error: the following arguments are required: --input" $cmd
done

# the invalid-document catalogue, malformed records (the first bad one is named)
# and a distribution whose sum overflows
for doc in tests/data/invalid/*.json; do
  args=(decide --input "$doc" "${standard[@]}")
  case ${doc##*/} in
    bad_json.json) says="malformed JSON at line 2, column 1" ;;
    bom.json) says="malformed JSON at line 1, column 1: Unexpected UTF-8 BOM" ;;
    duplicate_focal.json) says="bba document: focal set ('a',) assigned more than once" ;;
    duplicate_label.json) says="bba document: duplicate label 'a'" ;;
    empty_set_mass.json) says="bba document: the empty set is not a valid focal set" ;;
    frame_label_not_string.json) says="bba document: field 'frame' must be a list of strings" ;;
    mass_out_of_range.json) says="bba document: mass 1.5 on ('a',) is not a number in [0, 1]" ;;
    sum_mismatch.json) says="bba document: masses sum to 0.99, off by -0.01" ;;
    unknown_label.json) says="bba document: label 'c' not in frame ('a', 'b')" ;;
    thresholds_*) args=(decide "${combat[@]}" --thresholds "$doc" --risk 0.0455) ;;&
    thresholds_bad_order.json) says="bel thresholds must be strictly ascending, got (0.5, 0.3, 0.7)" ;;
    thresholds_missing_pl.json) says="threshold document: missing field 'pl'" ;;
    thresholds_not_triple.json) says="bel thresholds need exactly 3 values" ;;
    thresholds_profile_not_string.json) says="threshold document: field 'profile_name' must be str, got int" ;;
    *) printf '%s: no expected message in this script\n' "$doc" >&2; exit 1 ;;
  esac
  fails 1 "error: $says" "${args[@]}"
done
fails 1 "error: masses[0]: missing field 'mass'" decide --input <(printf '%s' '{"frame": ["a"], "masses": [{"elements": ["a"]}]}') "${standard[@]}"
fails 1 "error: masses[0]: field 'elements' must be list, got dict" decide --input <(printf '%s' '{"frame": ["a"], "masses": [{"elements": {"a": 1}, "mass": 1.0}]}') "${standard[@]}"
fails 1 "error: bba document: focal set ('a',) assigned more than once" decide --input <(printf '%s' '{"frame": ["a", "b"], "masses": [{"elements": ["a"], "mass": 0.5}, {"elements": ["a"], "mass": 0.5}, {"elements": ["b"], "mass": 2.0}]}') "${standard[@]}"
fails 1 "error: probabilities must have a finite sum" pic --input <(printf '%s' '{"frame": ["a", "b"], "probabilities": [1e308, 1e308]}')

# output that cannot be written: a full device, an encoding without the label,
# a pipe whose reader has gone and a closed standard output; a record is ASCII
fd=5 fails 1 "error: cannot write output" compare "${combat[@]}" --format record
ete='{"frame": ["\u00e9t\u00e9", "b"], "masses": [{"elements": ["\u00e9t\u00e9"], "mass": 1.0}]}'
PYTHONIOENCODING=ascii fails 1 "error: cannot write output" compare --input <(printf '%s' "$ete")
PYTHONIOENCODING=ascii pignistic compare --input <(printf '%s' "$ete") --format record
exec 3> >(:); wait $!  # the reader has exited, so every write to descriptor 3 fails
fd=3 fails 1 "error: cannot write output" compare "${combat[@]}" --format record
fd=- fails 1 "error: cannot write output" compare "${combat[@]}" --format record
