#!/usr/bin/env bash
# Instruction-mix diff: compares the multiset of instruction mnemonics that
# `objdump -d` shows for the functions whose demangled names match REGEX
# (an awk extended regular expression) in two object files, summed over all
# matching functions. A mnemonic with a memory operand counts apart from its
# register form ("vpand" and "vpand (mem)"), so a load folded into another
# instruction shows. Register allocation, addresses and instruction order
# are ignored, and so is alignment padding (the nop family), which follows
# code placement rather than code: a refactor that keeps a kernel's machine
# code shows no difference. Prints the matched function count of each side,
# then a unified diff of the "count mnemonic" lists; exits 0 when the
# multisets are equal, 1 when they differ and 2 on bad usage or no match.
#
#   tools/insn_mix.sh OLD/kernels_avx2.cpp.o NEW/kernels_avx2.cpp.o gf65536_fma
set -euo pipefail

if [ "$#" -ne 3 ]; then
  echo "usage: $0 OBJ_A OBJ_B REGEX" >&2
  exit 2
fi

# One "count mnemonic" line per distinct mnemonic and operand form;
# prefixes such as `rep` or `notrack` stay joined to the instruction they
# modify.
mix() {
  objdump -d -C --no-show-raw-insn "$1" | awk -v re="$2" -v tag="$3" '
    /^[0-9a-f]+ <.*>:$/ {
      name = substr($0, index($0, "<") + 1)
      sub(/>:$/, "", name)
      keep = name ~ re
      if (keep) { ++matched; print tag ": " name > "/dev/stderr" }
      next
    }
    keep && /^ *[0-9a-f]+:\t/ {
      sub(/^ *[0-9a-f]+:\t */, "")
      if ($0 ~ /(^|[ \t])nop[lwq]?([ \t]|$)/) next
      n = split($0, f, /[ \t]+/)
      op = f[1]
      if (op ~ /^(rep|repz|repnz|repe|repne|lock|notrack|bnd|data16)$/ && n > 1)
        op = op " " f[2]
      if (op != "" && index($0, "(") > 0) op = op " (mem)"
      if (op != "") ++count[op]
    }
    END {
      for (op in count) printf "%7d %s\n", count[op], op
      if (matched == 0) exit 3
    }' | sort -k2
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for side in A B; do
  obj="$1"
  [ "$side" = B ] && obj="$2"
  if ! mix "$obj" "$3" "$side" > "$tmp/$side" 2> "$tmp/$side.names"; then
    cat "$tmp/$side.names" >&2
    echo "$side: no function in $obj matches /$3/" >&2
    exit 2
  fi
  echo "$side: $(wc -l < "$tmp/$side.names") function(s) in $obj match /$3/"
done

if ! diff -u --label "A: $1" --label "B: $2" "$tmp/A" "$tmp/B"; then
  exit 1
fi
total="$(awk '{s += $1} END {print s}' "$tmp/A")"
echo "same instruction multiset ($total instructions)"
