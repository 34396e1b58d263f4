#!/bin/sh
# Passes when a command exits with status 1 and prints EXPECTED.
#
#   idl_shell_rejects.sh EXPECTED COMMAND [ARG...]
#
# tests/CMakeLists.txt runs idl_shell through this on malformed numeric
# flags and directives.
expected=$1
shift
out=$("$@" 2>&1 < /dev/null)
code=$?
printf '%s\n' "$out"
if [ "$code" -ne 1 ]; then
  echo "exit status $code, want 1"
  exit 1
fi
if ! printf '%s\n' "$out" | grep -qF -- "$expected"; then
  echo "output does not mention '$expected'"
  exit 1
fi
