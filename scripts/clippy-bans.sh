#!/usr/bin/env bash
# Checks that clippy's determinism bans fire:
#
#   scripts/clippy-bans.sh
#
# crates/lint/tests/fixtures/clippy_bans/ violates every ban, one module
# per ban family, and ends each violating line with `// ban: <path>`.
# Clippy must reject the package and report every path clippy.toml lists
# and every marked path. The markers make a deleted ban fail: the other
# bans still reject the package, and clippy.toml no longer lists it, but
# its marker still demands the report. A mistyped ban path fails too.
set -euo pipefail
cd "$(dirname "$0")/.."

ban_pkg=crates/lint/tests/fixtures/clippy_bans
if ban_out="$(cargo clippy -q --manifest-path "${ban_pkg}/Cargo.toml" \
    --target-dir target/clippy-bans -- -D warnings 2>&1)"; then
  echo "error: clippy accepted the ban fixtures" >&2
  exit 1
fi
listed="$(sed -n 's/.*{ path = "\([^"]*\)".*/\1/p' clippy.toml)"
marked="$(grep -rhoE '// ban: [A-Za-z0-9_:]+' "${ban_pkg}/src" | sed 's|^// ban: ||' || true)"
if [[ -z "${listed}" || -z "${marked}" ]]; then
  echo "error: no ban paths listed in clippy.toml or marked in ${ban_pkg}/src" >&2
  exit 1
fi
banned="$(printf '%s\n%s\n' "${listed}" "${marked}" | sort -u)"
while read -r path; do
  # Match the violation itself: clippy also quotes a ban path it cannot
  # resolve, in a warning that -D warnings does not promote.
  if ! grep -qF -e "use of a disallowed method \`${path}\`" \
      -e "use of a disallowed type \`${path}\`" \
      -e "use of a disallowed macro \`${path}\`" <<<"${ban_out}"; then
    echo "error: clippy did not report the ban on ${path}" >&2
    exit 1
  fi
done <<<"${banned}"
echo "clippy reported all $(wc -l <<<"${banned}") banned paths" \
  "($(wc -l <<<"${listed}") listed, $(sort -u <<<"${marked}" | wc -l) marked)"
