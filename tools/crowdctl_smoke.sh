#!/bin/sh
# crowdctl_smoke.sh — end-to-end check of the crowdctl CLI on a repository
# directory.
#
# Every command runs as its own crowdctl process, so each one reopens the
# storage engine: the user and record counts asserted below must survive
# every reopen. The script then seeds directories with a file outside the
# engine's naming rule (a `<coll>.json` export, an unsuffixed `<coll>.wal`
# or `<coll>.snapshot`) and asserts that crowdctl exits 1 with the
# refusal message and leaves every file in the directory untouched.
#
# Usage: crowdctl_smoke.sh <path-to-crowdctl>
# Registered with ctest as `crowdctl_smoke` (tools/CMakeLists.txt).
set -eu

[ $# -eq 1 ] || { echo "usage: $0 <path-to-crowdctl>" >&2; exit 2; }
CROWDCTL=$1
WORK=$(mktemp -d "${TMPDIR:-/tmp}/crowdctl_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "crowdctl_smoke: FAIL: $*" >&2
  exit 1
}

# expect_line <expected> <command...>: the command's stdout must contain
# the expected line verbatim.
expect_line() {
  expected=$1
  shift
  out=$("$@") || fail "'$*' exited $?"
  printf '%s\n' "$out" | grep -qxF "$expected" ||
    fail "'$*' printed '$out', expected '$expected'"
}

register() {
  "$CROWDCTL" "$REPO" register "$1" "$1@lab.gov" |
    sed -n 's/.*API key (shown once): //p'
}

REPO=$WORK/repo
ALICE=$(register alice)
BOB=$(register bob)
[ -n "$ALICE" ] && [ -n "$BOB" ] || fail "register printed no API key"
[ "$ALICE" != "$BOB" ] || fail "alice and bob were issued the same key"
expect_line "problem 'pdgeqrf': 0 record(s), 2 registered user(s)" \
  "$CROWDCTL" "$REPO" stats pdgeqrf

cat > "$WORK/alice.json" <<'EOF'
[{"task_parameters": {"m": 1000, "n": 1000},
  "tuning_parameters": {"mb": 4}, "output": 1.5,
  "machine_configuration": {"machine_name": "cori"}},
 {"task_parameters": {"m": 1000, "n": 1000},
  "tuning_parameters": {"mb": 8}, "output": 1.1,
  "machine_configuration": {"machine_name": "cori"}}]
EOF
cat > "$WORK/bob.json" <<'EOF'
[{"task_parameters": {"m": 2000, "n": 2000},
  "tuning_parameters": {"mb": 16}, "output": 2.5}]
EOF
expect_line "uploaded 2 record(s) to problem 'pdgeqrf'" \
  "$CROWDCTL" "$REPO" upload "$ALICE" pdgeqrf "$WORK/alice.json"
expect_line "problem 'pdgeqrf': 2 record(s), 2 registered user(s)" \
  "$CROWDCTL" "$REPO" stats pdgeqrf
expect_line "uploaded 1 record(s) to problem 'pdgeqrf'" \
  "$CROWDCTL" "$REPO" upload "$BOB" pdgeqrf "$WORK/bob.json"
expect_line "problem 'pdgeqrf': 3 record(s), 2 registered user(s)" \
  "$CROWDCTL" "$REPO" stats pdgeqrf

# query prints one record per stdout line and the count on stderr.
"$CROWDCTL" "$REPO" query "$BOB" pdgeqrf > "$WORK/all.out" 2> "$WORK/all.err" ||
  fail "query exited $?"
[ "$(wc -l < "$WORK/all.out")" -eq 3 ] || fail "query returned $(cat "$WORK/all.out")"
grep -qxF "3 record(s)" "$WORK/all.err" || fail "query reported $(cat "$WORK/all.err")"
"$CROWDCTL" "$REPO" query "$BOB" pdgeqrf "tuning_parameters.mb >= 8" \
  > "$WORK/where.out" 2> "$WORK/where.err" || fail "where query exited $?"
grep -qxF "2 record(s)" "$WORK/where.err" ||
  fail "where query reported $(cat "$WORK/where.err")"
# Uploads normalize machine tags through the alias tables ("cori" -> "Cori").
grep -qF '"machine_name":"Cori"' "$WORK/all.out" ||
  fail "machine tag not normalized: $(cat "$WORK/all.out")"

# fingerprint <dir>: every file's name, size and checksum.
fingerprint() {
  (cd "$1" && cksum -- * | sort)
}

# expect_refusal <dir> <file>: crowdctl must exit 1 naming <file> in the
# refusal, and change nothing in <dir>.
expect_refusal() {
  before=$(fingerprint "$1")
  status=0
  "$CROWDCTL" "$1" stats pdgeqrf > /dev/null 2> "$WORK/refusal.err" || status=$?
  [ "$status" -eq 1 ] || fail "crowdctl on $1 exited $status, expected 1"
  grep -qF "refusing to open $1/$2" "$WORK/refusal.err" ||
    fail "no refusal naming $2: $(cat "$WORK/refusal.err")"
  [ "$(fingerprint "$1")" = "$before" ] || fail "refused open changed $1"
}

for foreign in users.json users.wal users.snapshot; do
  # A populated engine directory with the foreign file next to its own.
  cp -R "$REPO" "$WORK/populated-$foreign"
  printf '{"name":"users","next_id":2,"docs":[{"_id":1}]}\n' \
    > "$WORK/populated-$foreign/$foreign"
  expect_refusal "$WORK/populated-$foreign" "$foreign"
  # A directory holding nothing but the foreign file.
  mkdir "$WORK/only-$foreign"
  printf '{"name":"users","next_id":2,"docs":[{"_id":1}]}\n' \
    > "$WORK/only-$foreign/$foreign"
  expect_refusal "$WORK/only-$foreign" "$foreign"
done

# The refusals left the real repository readable and unchanged in count.
expect_line "problem 'pdgeqrf': 3 record(s), 2 registered user(s)" \
  "$CROWDCTL" "$REPO" stats pdgeqrf
echo "crowdctl_smoke: OK"
