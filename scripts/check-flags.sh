#!/bin/sh
# check-flags.sh — assert that every flag defined by every command under
# cmd/, or by internal/modelload for the commands that share it, is
# mentioned in README.md, so the CLI reference cannot silently drift from
# the binaries.
#
# Flag names are harvested from source, not from -h output, so the check
# needs no build step: every flag in this repo is declared as
# fs.String("name", ...) / fs.IntVar(&v, "name", ...) / flag.Bool("name",
# ...) etc. on a *flag.FlagSet named fs or the package-level flag. The
# README match is boundary-safe:
# "-depth" in prose does NOT satisfy a definition of -bootstrap-depth
# (and vice versa) because the character on each side of the candidate
# must not extend the flag name.
set -eu

cd "$(dirname "$0")/.."

fail=0
for d in cmd/*/ internal/modelload/; do
	flags=$(grep -hoE '(fs|flag)\.(Bool|Duration|Float64|Int|Int64|String|Uint64)(Var)?\((&[^,]+, *)?"[^"]+"' "$d"*.go |
		sed 's/.*"\([^"]*\)"$/\1/' | sort -u)
	for f in $flags; do
		if ! grep -qE "(^|[^A-Za-z0-9-])-$f([^A-Za-z0-9-]|\$)" README.md; then
			echo "README.md: missing flag -$f (defined by ${d%/})" >&2
			fail=1
		fi
	done
done

if [ "$fail" -ne 0 ]; then
	echo "check-flags: FAIL" >&2
	exit 1
fi
echo "check-flags: OK"
