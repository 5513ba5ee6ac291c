#!/usr/bin/env bash
# Runs the mutation ledger (scripts/mutants.txt) and passes only if every
# mutant is killed, i.e. every entry's command fails:
#
#   scripts/mutants.sh
#
# It copies the tracked tree once to target/mutants/tree, then for each
# entry applies the edit there, runs the entry's command from the copy's
# root, and restores the file. One CARGO_TARGET_DIR
# (target/mutants/target) serves every entry, so each build after the
# first recompiles only what the mutant touched. Each command's output
# goes to target/mutants/logs/<name>.log. It prints one line per entry
# and the total wall time.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/ledger.sh
source scripts/ledger.sh

start="$(date +%s)"
load_ledger scripts/mutants.txt
if ! check_ledger .; then
  echo "error: refusing to run a ledger whose texts do not occur exactly once" >&2
  exit 1
fi

work=target/mutants
rm -rf "${work}/tree" "${work}/logs"
mkdir -p "${work}/tree" "${work}/logs"
git ls-files -z --cached --others --exclude-standard |
  tar --null --ignore-failed-read -T - -cf - | tar -xf - -C "${work}/tree"
export CARGO_TARGET_DIR="${PWD}/${work}/target"

# Replaces the one occurrence of $2 in file $1 with $3, in place. The
# texts go through the environment because `awk -v` would interpret
# backslashes.
mutate() {
  FROM="$2" TO="$3" awk '
    { text = text $0 "\n" }
    END {
      from = ENVIRON["FROM"]; at = index(text, from)
      printf "%s%s%s", substr(text, 1, at - 1), ENVIRON["TO"], substr(text, at + length(from))
    }' "$1" >"${work}/mutated"
  cat "${work}/mutated" >"$1"
}

survivors=0
for i in "${!names[@]}"; do
  file="${work}/tree/${files[i]}"
  cp "${file}" "${work}/original"
  mutate "${file}" "${froms[i]}" "${tos[i]}"
  entry_start="$(date +%s)"
  if (cd "${work}/tree" && bash -c "${runs[i]}") >"${work}/logs/${names[i]}.log" 2>&1; then
    verdict=SURVIVED
    survivors=$((survivors + 1))
  else
    verdict=killed
  fi
  # A plain copy gives the restored file a new mtime, so cargo rebuilds it.
  cp "${work}/original" "${file}"
  printf '%-8s %-38s %5s s  %s\n' "${verdict}" "${names[i]}" \
    "$(($(date +%s) - entry_start))" "${runs[i]}"
  if [[ "${verdict}" == SURVIVED ]]; then
    printf '         expected: %s\n' "${whys[i]}"
  fi
done
echo "mutation ledger: $((${#names[@]} - survivors)) of ${#names[@]} killed" \
  "in $(($(date +%s) - start)) s wall time"
[[ "${survivors}" == 0 ]]
