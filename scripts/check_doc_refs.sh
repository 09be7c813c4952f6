#!/usr/bin/env bash
# Documentation anti-rot checks, run in CI:
#
#  1. Path references: fails when a doc references a repo path that does
#     not exist. A "reference" is any backtick-quoted token that looks
#     like a repo path: contains a slash or ends in a known source/doc
#     extension. Tokens under build/ are ignored (they only exist after a
#     build).
#  2. Config knobs, both ways: every knob named in docs/operations.md's
#     knob tables (rows of the form "| `knob_name` | ...") must exist as an
#     identifier in src/system/sase_system.h, src/runtime/*.h,
#     src/checkpoint/*.h or src/obs/*.h, so the tuning guide cannot
#     document a knob that was renamed or removed; and every data member
#     of SystemConfig, RuntimeConfig, CheckpointConfig and ObsConfig must
#     have such a row, so a knob cannot be added without one.
#  3. Metric catalog: docs/observability.md's catalog rows
#     ("| `sase_...` | ...") are checked against the registry call sites
#     in src/ BOTH ways — a documented metric must exist in the code, and
#     every "sase_..." name literal in src/ must appear in the catalog.
set -u

cd "$(dirname "$0")/.."

status=0
for doc in README.md docs/language.md docs/operations.md docs/architecture.md docs/recovery.md docs/observability.md; do
  if [[ ! -f "$doc" ]]; then
    echo "MISSING DOC: $doc"
    status=1
    continue
  fi
  refs=$(grep -oE '`[A-Za-z0-9_./-]+`' "$doc" | tr -d '`' | sort -u)
  for ref in $refs; do
    case "$ref" in
      build/*) continue ;;                      # build artifacts
      /*) continue ;;                           # absolute: URL paths like /metrics
      */*) ;;                                   # path with a directory
      *.md|*.cc|*.cpp|*.h|*.txt|*.yml|*.json) ;;  # bare file name
      *) continue ;;                            # not a path reference
    esac
    if [[ ! -e "$ref" ]]; then
      echo "BROKEN REFERENCE in $doc: $ref"
      status=1
    fi
  done
done

# --- knob checks (docs/operations.md vs the config headers, both ways) ---
# Prints the data members of struct <name> in <header>: the last identifier
# of each one-line declaration directly inside the struct's braces,
# skipping comments, functions and type declarations.
config_members() {
  awk -v name="$2" '
    $0 ~ "^[[:space:]]*struct " name "[[:space:]]*[{]" { inside = 1; depth = 0 }
    inside {
      code = $0
      sub(/\/\/.*/, "", code)
      if (depth == 1 && code ~ /;[[:space:]]*$/ && code !~ /[()]/ &&
          code !~ /^[[:space:]]*([}]|static |using |enum |struct |friend )/) {
        decl = code
        sub(/[[:space:]]*(=.*|[{].*)?;[[:space:]]*$/, "", decl)
        n = split(decl, words, /[^A-Za-z0-9_]+/)
        print words[n]
      }
      opens = gsub(/[{]/, "{", code)
      closes = gsub(/[}]/, "}", code)
      depth += opens - closes
      if (depth <= 0 && closes > 0) inside = 0
    }' "$1"
}
knob_doc=docs/operations.md
if [[ -f "$knob_doc" ]]; then
  knobs=$(grep -oE '^\| `[A-Za-z_][A-Za-z0-9_]*`' "$knob_doc" \
            | sed -E 's/^\| `([A-Za-z0-9_]+)`/\1/' | sort -u)
  if [[ -z "$knobs" ]]; then
    echo "NO KNOB TABLE ROWS found in $knob_doc (format: '| \`knob\` | ...')"
    status=1
  fi
  for knob in $knobs; do
    if ! grep -qrE "\b${knob}\b" src/system/sase_system.h src/runtime/*.h \
         src/checkpoint/*.h src/obs/*.h; then
      echo "UNKNOWN KNOB in $knob_doc: \`$knob\` not found in" \
           "src/system/sase_system.h, src/runtime/*.h, src/checkpoint/*.h" \
           "or src/obs/*.h"
      status=1
    fi
  done
  # Every field of the four config structs has a row.
  for spec in "src/system/sase_system.h SystemConfig" \
              "src/runtime/sharded_runtime.h RuntimeConfig" \
              "src/checkpoint/checkpoint_policy.h CheckpointConfig" \
              "src/obs/metrics.h ObsConfig"; do
    read -r header struct <<< "$spec"
    members=$(config_members "$header" "$struct")
    if [[ -z "$members" ]]; then
      echo "NO MEMBERS found for struct $struct in $header (renamed or moved?)"
      status=1
    fi
    for member in $members; do
      if ! grep -qF "| \`${member}\` |" "$knob_doc"; then
        echo "UNDOCUMENTED KNOB: $struct::$member ($header) has no" \
             "'| \`$member\` |' row in $knob_doc"
        status=1
      fi
    done
  done
fi

# --- metric catalog check (docs/observability.md vs src/ call sites) ---
metric_doc=docs/observability.md
if [[ -f "$metric_doc" ]]; then
  # Documented -> code. Engine per-query names are assembled at runtime
  # ("sase_query_" + suffix), so for those grep the suffix literal.
  metrics=$(grep -oE '^\| `sase_[a-z_]+`' "$metric_doc" \
              | sed -E 's/^\| `(sase_[a-z_]+)`/\1/' | sort -u)
  if [[ -z "$metrics" ]]; then
    echo "NO METRIC CATALOG ROWS found in $metric_doc (format: '| \`sase_...\` | ...')"
    status=1
  fi
  for metric in $metrics; do
    needle="$metric"
    case "$metric" in
      sase_query_*) needle="${metric#sase_query_}" ;;
    esac
    if ! grep -qr "\"${needle}" src/; then
      echo "UNKNOWN METRIC in $metric_doc: \`$metric\` has no registry" \
           "call site in src/"
      status=1
    fi
  done
  # Pre-quiesce semantics: the gauges docs/observability.md section 1
  # names as sampled *before* the quiesce must still be the ones the code
  # samples early (a grep for the literal near the pre-quiesce sampling
  # sites), so the alerting guidance cannot drift from the scrape order.
  for gauge in sase_shard_queue_len sase_runtime_merge_watermark_lag \
               sase_partition_hotkey_queue_lag; do
    if ! grep -q "\`${gauge}\`" "$metric_doc"; then
      echo "PRE-QUIESCE GAUGE \`$gauge\` missing from $metric_doc" \
           "section 1's sampled-before-quiesce list"
      status=1
    fi
    if ! grep -qr "\"${gauge}" src/; then
      echo "PRE-QUIESCE GAUGE \`$gauge\` documented in $metric_doc but" \
           "has no call site in src/"
      status=1
    fi
  done
  # Hot-key mitigation: the knobs and the split metrics are pinned BOTH
  # directions explicitly — the operations guide documents the decision
  # surface (threshold/cadence/switch) and the observability catalog the
  # outcome surface (splits/refusals/active), and neither may rot away
  # from the code while the other survives.
  for knob in hotkey_mitigation hotkey_split_threshold hotkey_min_events; do
    if ! grep -q "\`${knob}\`" "$knob_doc"; then
      echo "MITIGATION KNOB \`$knob\` missing from $knob_doc's knob tables"
      status=1
    fi
    if ! grep -qE "\b${knob}\b" src/system/sase_system.h src/runtime/*.h; then
      echo "MITIGATION KNOB \`$knob\` documented in $knob_doc but absent" \
           "from src/system/sase_system.h and src/runtime/*.h"
      status=1
    fi
  done
  for metric in sase_partition_hotkey_splits_total \
                sase_partition_hotkey_split_refused_total \
                sase_partition_hotkey_split_active; do
    if ! grep -q "\`${metric}\`" "$metric_doc"; then
      echo "MITIGATION METRIC \`$metric\` missing from $metric_doc's catalog"
      status=1
    fi
    if ! grep -qr "\"${metric}" src/; then
      echo "MITIGATION METRIC \`$metric\` documented in $metric_doc but" \
           "has no call site in src/"
      status=1
    fi
  done
  # Code -> documented. Every metric-name literal in src/ (including the
  # assembled "sase_query_" prefix) must appear in the catalog.
  srcnames=$(grep -rhoE '"sase_[a-z_]+' src/ | tr -d '"' | sort -u)
  for name in $srcnames; do
    case "$name" in
      *_) pattern="\`${name}" ;;       # assembled prefix ("sase_query_" + ...)
      *) pattern="\`${name}\`" ;;      # full name: match exactly
    esac
    if ! grep -q "$pattern" "$metric_doc"; then
      echo "UNDOCUMENTED METRIC: \"$name\" used in src/ but absent from" \
           "$metric_doc's catalog"
      status=1
    fi
  done
fi

if [[ $status -eq 0 ]]; then
  echo "doc references OK"
fi
exit $status
