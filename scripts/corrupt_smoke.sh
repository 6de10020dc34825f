#!/bin/sh
# Corruption smoke test: flip one byte at ~30 deterministic offsets of a
# real `isf table 1 --checkpoint` file and of a real `isf fleet
# --journal` journal, resume from each damaged copy, and require either
# exit 0 with output byte-identical to the clean run (the damage was a
# torn tail: its work re-ran) or exit 2 with a message naming the file
# (the damage was refused).  Any other exit code — a crash (139), an
# uncaught exception (125) — or a different output fails.
#
# Usage: scripts/corrupt_smoke.sh [path-to-isf]
set -eu

ISF=${1:-_build/default/bin/isf.exe}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

OFFSETS=30

# xor the byte at offset $2 of file $1 with 0x5a, in place
flip() {
    b=$(od -An -tu1 -j "$2" -N1 "$1" | tr -d ' ')
    # shellcheck disable=SC2059
    printf "$(printf '\\%03o' $((b ^ 90)))" |
        dd of="$1" bs=1 seek="$2" conv=notrunc 2>/dev/null
}

# check_resume NAME CLEAN_FILE DAMAGED_FILE OUT ERR RC
check_resume() {
    case $6 in
    0)
        if ! cmp -s "$2" "$4"; then
            echo "FAIL[$1]: resumed output differs from the clean run" >&2
            diff "$2" "$4" >&2 || true
            exit 1
        fi
        recovered=$((recovered + 1))
        ;;
    2)
        if ! grep -qF "$3" "$5"; then
            echo "FAIL[$1]: exit 2 without naming $3:" >&2
            cat "$5" >&2
            exit 1
        fi
        refused=$((refused + 1))
        ;;
    *)
        echo "FAIL[$1]: exit $6" >&2
        cat "$5" >&2
        exit 1
        ;;
    esac
}

# damage NAME CLEAN_ARTEFACT: run "resume DAMAGED OUT ERR" on a copy of
# the artefact with one flipped byte per offset, then at the last byte
damage() {
    size=$(wc -c < "$2")
    recovered=0
    refused=0
    i=0
    while [ "$i" -le "$OFFSETS" ]; do
        if [ "$i" -eq "$OFFSETS" ]; then
            off=$((size - 1))
        else
            off=$((i * size / OFFSETS + i % 7))
        fi
        copy=$DIR/$1.$i
        cp "$2" "$copy"
        flip "$copy" "$off"
        rc=0
        resume "$copy" "$DIR/out.$1.$i" "$DIR/err.$1.$i" || rc=$?
        check_resume "$1 @$off" "$DIR/clean.$1" "$copy" "$DIR/out.$1.$i" \
            "$DIR/err.$1.$i" "$rc"
        i=$((i + 1))
    done
    echo "[$1] $size bytes, $((OFFSETS + 1)) flips: $recovered recovered byte-identically, $refused refused"
    if [ "$recovered" -eq 0 ] || [ "$refused" -eq 0 ]; then
        echo "FAIL[$1]: expected both recoveries and refusals" >&2
        exit 1
    fi
}

# ---- a Table 1 checkpoint ----
"$ISF" table 1 --checkpoint "$DIR/table1.ckpt" > "$DIR/clean.checkpoint"
resume() { "$ISF" table 1 --checkpoint "$1" > "$2" 2> "$3"; }
damage checkpoint "$DIR/table1.ckpt"

# ---- a fleet journal ----
"$ISF" fleet -n 8 --seed 3 --journal "$DIR/fleet.journal" \
    --out "$DIR/clean.journal" > /dev/null
resume() {
    "$ISF" fleet -n 8 --seed 3 --journal "$1" --out "$2" > /dev/null 2> "$3"
}
damage journal "$DIR/fleet.journal"

echo "corrupt smoke OK"
