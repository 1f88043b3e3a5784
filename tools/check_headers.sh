#!/usr/bin/env bash
# Header self-containment check: every public header under src/ must compile
# as its own translation unit (i.e. include everything it uses), so the API
# headers cannot grow hidden include-order dependencies. CI runs this; run it
# locally as tools/check_headers.sh [compiler].
set -u

cd "$(dirname "$0")/.."
CXX="${1:-${CXX:-c++}}"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

status=0
checked=0

# check HEADER [FLAGS...]: compiles HEADER alone, with FLAGS added.
check() {
  local header="$1" rel="${1#src/}" tu="$tmpdir/tu.cpp"
  printf '#include "%s"\n#include "%s"\nint main() { return 0; }\n' \
    "$rel" "$rel" > "$tu"   # double include also exercises the include guard
  if ! "$CXX" -std=c++20 -Wall -Wextra -Werror -fsyntax-only -Isrc "${@:2}" \
      "$tu" 2> "$tmpdir/err"; then
    echo "NOT SELF-CONTAINED: $header ${*:2}"
    sed 's/^/    /' "$tmpdir/err"
    status=1
  fi
  checked=$((checked + 1))
}

while IFS= read -r header; do
  check "$header"
done < <(find src -name '*.hpp' | sort)

# The x86 SIMD kernel sources sit under their tiers' feature macros, so the
# plain compile above sees little or none of them: compile them again under
# the flags of each tier that includes them.
case "$("$CXX" -dumpmachine)" in
  x86_64*)
    for flags in -mavx2 "-mavx512f -mavx512bw" \
                 "-mgfni -mavx512f -mavx512bw"; do
      for header in src/kern/kernels_gf.hpp src/kern/kernels_xor.hpp; do
        check "$header" $flags  # unquoted: one argument per flag
      done
    done
    ;;
esac

echo "checked $checked headers: $([ "$status" -eq 0 ] && echo all self-contained || echo FAILURES above)"
exit "$status"
