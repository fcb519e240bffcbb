#!/bin/sh
# The seven numbers a deletion change in this repository quotes, from one
# command:
#
#   1. non-test lines per crate — every line of each `src/**/*.rs` up to the
#      file's first `#[cfg(test)]` (the deepbench package is not counted);
#      `tests/workspace_smoke.rs` fails when a library item follows it;
#   2. `pub` fields of each configuration struct (`*Config`, `*Params`,
#      `*Policy`, `SearchOptions`) — the independently settable values —
#      and their total;
#   3. lint expectations: the `#[expect(` attributes (each carries its
#      reason) in workspace `.rs` code outside `vendor/` — the one way left to
#      silence a lint, `#[allow]` being rejected by `clippy::allow_attributes`;
#   4. md5 of `report -- smoke` stdout, which must not move across a refactor,
#      beside the committed `tools/report_smoke.md5` and whether they match
#      (informational here; CI gates the match in its own step);
#   5. `pub` item lines per crate — the non-test lines of count 1 that declare
#      a `pub` fn (methods included), struct, enum, trait, type, const, static
#      or mod — and their total. `pub(crate)` and `pub use` do not count;
#   6. `pub` item names per crate that nothing outside the crate reads — the
#      distinct names a line of count 5 declares (fn, struct, enum, trait,
#      type, const, static; methods included) that no `.rs` file outside the
#      crate's library source mentions as a word. The package's own bins, the
#      crates' and the root's `tests/`, `examples/` and the deepbench package
#      all count as outside. The match is lexical, so this is a lower bound
#      (a name such as `new` always matches somewhere); the names are listed
#      beside each count as candidates for `pub(crate)` or deletion;
#   7. test lines (informational): every line of the root `tests/*.rs`, of
#      `crates/*/tests/**/*.rs`, and of each `src/**/*.rs` file (the root's and
#      every crate's, the deepbench package aside) from its first
#      `#[cfg(test)]` on — the complement of count 1 — and their total.
#
# Run from anywhere inside the checkout: `tools/simplicity.sh`.
set -eu
cd "$(dirname "$0")/.."

# Per crate, the sum over its non-deepbench `src/**/*.rs` files of the lines
# before each file's first `#[cfg(test)]` that match the awk pattern $1.
per_crate() {
    total=0
    for dir in crates/*/; do
        lines=$(find "${dir}src" -name '*.rs' -not -path '*/bin/deepbench/*' |
            while read -r file; do
                awk "/^#\\[cfg\\(test\\)\\]/{exit} $1 {n++} END{print n+0}" "$file"
            done | awk '{s+=$1} END{print s+0}')
        printf '%-10s %6d\n' "$(basename "$dir")" "$lines"
        total=$((total + lines))
    done
    printf '%-10s %6d\n' total "$total"
}

echo "== non-test lines per crate"
per_crate ''

echo "== pub fields per configuration struct"
find crates/*/src -name '*.rs' -not -path '*/bin/deepbench/*' | sort | xargs awk '
    /^pub struct ([A-Za-z0-9]+(Config|Params|Policy)|SearchOptions)( |$)/ { name = $3; fields = 0; next }
    name != "" && /^    pub [a-z_0-9]+:/ { fields++ }
    name != "" && /^}/ { printf "%-20s %3d\n", name, fields; total += fields; name = "" }
    END { printf "%-20s %3d\n", "total", total }
'

echo "== lint expectations"
grep -rE --include='*.rs' '^[[:space:]]*#!?\[expect\(' crates src tests examples | wc -l

echo "== md5 of report -- smoke"
got=$(cargo run -q --release -p deepweb-bench --bin report -- smoke 2>/dev/null | md5sum | cut -d' ' -f1)
want=$(cat tools/report_smoke.md5)
if [ "$got" = "$want" ]; then verdict=matches; else verdict=DIFFERS; fi
printf '%s (tools/report_smoke.md5 %s: %s)\n' "$got" "$want" "$verdict"

echo "== pub item lines per crate"
per_crate '/^[ \t]*pub ((const|unsafe|async) )*(fn|struct|enum|trait|type|const|static|mod) /'

echo "== pub item names no other crate reads"
inside=$(mktemp)
words=$(mktemp)
trap 'rm -f "$inside" "$words"' EXIT
total=0
for dir in crates/*/; do
    # The crate's library source: its `src/` without the package's bins.
    find "${dir}src" -name '*.rs' -not -path "${dir}src/bin/*" -not -path "${dir}src/main.rs" |
        sort >"$inside"
    find crates src tests examples -name '*.rs' | sort | comm -23 - "$inside" |
        xargs grep -ohw '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$words"
    unread=$(xargs awk '
        FNR == 1 { skip = 0 }
        /^#\[cfg\(test\)\]/ { skip = 1 }
        !skip && match($0, /^[ \t]*pub ((const|unsafe|async) )*(fn|struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*/) {
            n = split(substr($0, RSTART, RLENGTH), w, " "); print w[n]
        }' <"$inside" | sort -u | comm -23 - "$words")
    n=$(printf '%s' "$unread" | grep -c . || true)
    printf '%-10s %6d %s\n' "$(basename "$dir")" "$n" "$(echo $unread)"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"

echo "== test lines"
root_tests=$(cat tests/*.rs | wc -l)
crate_tests=$(find crates/*/ -path '*/tests/*' -name '*.rs' -not -path '*/src/*' |
    xargs cat | wc -l)
unit_tests=$(find src crates/*/src -name '*.rs' -not -path '*/bin/deepbench/*' |
    while read -r file; do
        awk '/^#\[cfg\(test\)\]/{t=1} t{n++} END{print n+0}' "$file"
    done | awk '{s+=$1} END{print s+0}')
printf '%-16s %6d\n' "tests/" "$root_tests" "crates/*/tests/" "$crate_tests" \
    "unit (src/)" "$unit_tests" total "$((root_tests + crate_tests + unit_tests))"
