#!/usr/bin/env bash
# Linker census: the out-of-line functions of libstof.a that no shipped
# binary links.
#
# Usage (from anywhere in the repository):
#
#   tools/symbol_census.sh [build-dir]      # default: build-census/
#
# Configures its own build directory at -O0 with one section per function
# and per datum and links with --gc-sections, so a function that no binary
# reaches is dropped from every binary and no call hides inside an inlined
# body.  It builds every non-test target of the main project (bench/,
# examples/, tools/) and the perfbench driver as a separate CMake project,
# then lists the library's global text symbols (nm type T) that none of
# those binaries defines.  Function-pointer entries count as reached (the
# table that holds them is), so the list is a lower bound on dead code.
# Inline and template code (header-only functions, member templates) emits
# no library symbol of its own, so it is outside the census: a header
# function that nothing calls is found by grepping for its callers.
#
# The list is diffed against tools/census_allowlist.txt: one demangled
# symbol per line, then two spaces, '#', and the reason it stays (a test
# oracle or observer, or the ROADMAP item that owns it).  The script exits
# 1 on an unused symbol the allowlist does not name, on an allowlist line
# whose symbol is linked or gone, and on a line without a reason.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${1:-$root/build-census}
allowlist=$root/tools/census_allowlist.txt
jobs=$(nproc 2>/dev/null || echo 2)
export LC_ALL=C

configure() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
}

configure "$root" "$out/main"
for dir in bench examples tools; do
  make -s -C "$out/main/$dir" -j "$jobs" all > /dev/null
done
configure "$root/perfbench" "$out/perfbench"
make -s -C "$out/perfbench" -j "$jobs" perfbench_driver > /dev/null

binaries=$(find "$out/main/bench" "$out/main/examples" "$out/main/tools" \
                "$out/perfbench" -maxdepth 1 -type f -perm -u+x)

text_symbols() {  # global text symbols, demangled, one per line
  nm -C --defined-only "$@" 2> /dev/null | sed -n 's/^[0-9a-f]* T //p'
}

text_symbols "$out/main/src/libstof.a" | sort -u > "$out/library.txt"
# shellcheck disable=SC2086  # one word per binary path
text_symbols $binaries | sort -u > "$out/linked.txt"
comm -23 "$out/library.txt" "$out/linked.txt" > "$out/unused.txt"

status=0
entries=$(grep -vE '^[[:space:]]*(#|$)' "$allowlist" || true)
if [ -n "$entries" ] && echo "$entries" | grep -vE '^.+  # .+$' >&2; then
  echo "census: the allowlist lines above have no '  # reason'" >&2
  status=1
fi
if [ -n "$entries" ]; then
  echo "$entries" | sed 's/  # .*$//' | sort -u
fi > "$out/allowed.txt"

unlisted=$(comm -23 "$out/unused.txt" "$out/allowed.txt")
stale=$(comm -13 "$out/unused.txt" "$out/allowed.txt")

echo "census: $(wc -l < "$out/library.txt") library functions," \
     "$(wc -l < "$out/unused.txt") linked by no binary" \
     "($(echo "$binaries" | wc -l) binaries)," \
     "$(wc -l < "$out/allowed.txt") allowlisted"
if [ -n "$unlisted" ]; then
  echo "census: linked by no binary and not in tools/census_allowlist.txt:" >&2
  echo "$unlisted" | sed 's/^/  /' >&2
  status=1
fi
if [ -n "$stale" ]; then
  echo "census: stale tools/census_allowlist.txt lines (symbol linked or gone):" >&2
  echo "$stale" | sed 's/^/  /' >&2
  status=1
fi
exit $status
