#!/usr/bin/env bash
# Runs a command under a wall-clock limit so a hang fails loudly.
#
#   scripts/hang_guard.sh SECONDS COMMAND [ARGS...]
#
# The command runs under `timeout --foreground`, so only the command itself
# is signalled when the limit expires; processes it started (test binaries
# under `cargo test`) are left as they were. The script then prints every
# thread of each process running an executable from a `target/` directory
# with its name and kernel wait channel
# (/proc/PID/task/TID/{comm,wchan}) — where each one is parked — kills them
# and exits 124. Any other exit status is passed through unchanged.
set -uo pipefail

limit=$1
shift
timeout --foreground "$limit" "$@"
status=$?
if [ "$status" -ne 124 ]; then
    exit "$status"
fi

echo "hang_guard: '$*' still running after ${limit}s; thread dump follows" >&2
victims=()
for proc in /proc/[0-9]*; do
    pid=${proc#/proc/}
    [ "$pid" = "$$" ] && continue
    exe=$(readlink "$proc/exe" 2>/dev/null) || continue
    case "$exe" in
    */target/*) ;;
    *) continue ;;
    esac
    victims+=("$pid")
    echo "process $pid: $(tr '\0' ' ' <"$proc/cmdline" 2>/dev/null)" >&2
    for task in "$proc"/task/[0-9]*; do
        printf '  thread %-8s %-24s wchan=%s\n' "${task##*/}" \
            "$(cat "$task/comm" 2>/dev/null)" "$(cat "$task/wchan" 2>/dev/null)" >&2
    done
done
if [ "${#victims[@]}" -gt 0 ]; then
    kill -KILL "${victims[@]}" 2>/dev/null
fi
exit 124
