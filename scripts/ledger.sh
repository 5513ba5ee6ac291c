#!/usr/bin/env bash
# Reads the mutation ledger (scripts/mutants.txt) and checks that every
# entry's source text still occurs exactly once in its file. Builds
# nothing, so ci.sh runs it on every gate:
#
#   scripts/ledger.sh
#
# scripts/mutants.sh sources this file for `load_ledger` and
# `check_ledger`, then runs every entry.
set -euo pipefail

# The ledger's entries, index-aligned, filled by `load_ledger`.
names=() files=() runs=() whys=() froms=() tos=()

# Parses the ledger at $1 into the arrays above; exits 1 on a line that
# fits no field or an entry missing one.
load_ledger() {
  local ledger="$1" line block="" sep="" n=-1 lineno=0
  while IFS= read -r line || [[ -n "${line}" ]]; do
    lineno=$((lineno + 1))
    if [[ "${line}" == '|'* && -n "${block}" ]]; then
      if [[ "${block}" == from ]]; then
        froms[n]+="${sep}${line#|}"
      else
        tos[n]+="${sep}${line#|}"
      fi
      sep=$'\n'
      continue
    fi
    block=""
    case "${line}" in
      '' | '#'*) ;;
      'mutant: '*)
        n=$((n + 1))
        names[n]="${line#mutant: }" files[n]="" runs[n]="" whys[n]="" froms[n]="" tos[n]=""
        ;;
      'file: '*) files[n]="${line#file: }" ;;
      'run: '*) runs[n]="${line#run: }" ;;
      'why: '*) whys[n]="${line#why: }" ;;
      'from:') block=from sep="" ;;
      'to:') block=to sep="" ;;
      *)
        echo "error: ${ledger}:${lineno}: unexpected line: ${line}" >&2
        exit 1
        ;;
    esac
  done <"${ledger}"
  local i
  for i in "${!names[@]}"; do
    if [[ -z "${files[i]}" || -z "${runs[i]}" || -z "${whys[i]}" || -z "${froms[i]}" ]]; then
      echo "error: ${ledger}: mutant ${names[i]} lacks a file, run, why or from" >&2
      exit 1
    fi
  done
}

# Prints how often the text in $NEEDLE occurs in file $1 (overlapping
# occurrences count). The text goes through the environment because
# `awk -v` would interpret its backslashes.
occurrences() {
  NEEDLE="$1" awk '
    { text = text $0 "\n" }
    END {
      needle = ENVIRON["NEEDLE"]; count = 0
      while ((at = index(text, needle)) > 0) {
        count++
        text = substr(text, at + 1)
      }
      print count
    }' "$2"
}

# Checks every entry's text against the tree rooted at $1. Prints one
# line per entry that does not occur exactly once; returns 1 if any.
check_ledger() {
  local root="$1" i count bad=0
  for i in "${!names[@]}"; do
    if [[ ! -f "${root}/${files[i]}" ]]; then
      echo "mutant ${names[i]}: ${files[i]} does not exist" >&2
      bad=1
      continue
    fi
    count="$(occurrences "${froms[i]}" "${root}/${files[i]}")"
    if [[ "${count}" != 1 ]]; then
      echo "mutant ${names[i]}: its text occurs ${count} times in ${files[i]}, not once" >&2
      bad=1
    fi
  done
  return "${bad}"
}

if [[ "${BASH_SOURCE[0]}" == "$0" ]]; then
  cd "$(dirname "$0")/.."
  load_ledger scripts/mutants.txt
  if ! check_ledger .; then
    echo "error: update scripts/mutants.txt with the code it checks" >&2
    exit 1
  fi
  echo "mutation ledger: ${#names[@]} entries, each text occurs exactly once"
fi
