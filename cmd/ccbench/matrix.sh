#!/usr/bin/env bash
# The checked quick-run matrix: every row runs `ccbench -quick -check` with
# the row's flags and fault plan over the row's experiments, once per seed.
# An invariant violation, a delivery-ledger breach or any other nonzero exit
# fails the row. Run from the repository root:
#
#   bash cmd/ccbench/matrix.sh list               row names as a JSON list
#   bash cmd/ccbench/matrix.sh run ROW [SEED...]  one row (seeds 1 2 3 by default)
#   bash cmd/ccbench/matrix.sh slice              seed 1 of every row marked *
#
# CI runs one cell per row over seeds 1-3; `make matrix` runs the slice.
# TestMatrixTable (matrix_test.go) checks in tier-1 that every family has a
# slice row and every fault class a row that arms it alone.
set -euo pipefail

# slice row             flags          faults          experiments
rows='
-       fault-link      -              link=0.02       fig13 fig17 fig21 faults-rate faults-recovery
-       fault-replay    -              replay=0.02     fig13 fig17 fig21 faults-rate faults-recovery
-       fault-dbdrop    -              dbdrop=0.02     fig13 fig17 fig21 faults-rate faults-recovery
-       fault-dbdup     -              dbdup=0.02      fig13 fig17 fig21 faults-rate faults-recovery
-       fault-stall     -              stall=0.02      fig13 fig17 fig21 faults-rate faults-recovery
-       fault-dma       -              dma=0.02        fig13 fig17 fig21 faults-rate faults-recovery
-       fault-cache     -              cache=0.02      fig13 fig17 fig21 faults-rate faults-recovery
*       fault-all       -              all=0.02        fig13 fig17 fig21 faults-rate faults-recovery
-       protocol-upi    -protocol=upi  all=0.005       fig13 fig17 fig21 proto-sweep
*       protocol-cxl    -protocol=cxl  all=0.005       fig13 fig17 fig21 proto-sweep
-       fabric-4        -ports=4       all=0.02        fabric-incast fabric-isolation fabric-crossover
*       fabric-8        -ports=8       all=0.02        fabric-incast fabric-isolation fabric-crossover
-       fabric-16       -ports=16      all=0.02        fabric-incast fabric-isolation fabric-crossover
*       chaos-portflap  -              portflap=0.02   fabric-portflap failover-recovery
-       chaos-corrupt   -              corrupt=0.02    fabric-portflap failover-recovery
-       chaos-blackhole -              blackhole=0.02  fabric-portflap failover-recovery
-       chaos-brownout  -              brownout=0.02   fabric-portflap failover-recovery
'

usage() {
	echo "usage: bash cmd/ccbench/matrix.sh list | run ROW [SEED...] | slice" >&2
	exit 2
}

table() { sed '/^[[:space:]]*$/d' <<<"$rows"; }

run_row() { # run_row ROW SEED...
	local line name flags faults exps seed
	line=$(table | awk -v row="$1" '$2 == row')
	[[ -n $line ]] || { echo "matrix: unknown row $1" >&2; usage; }
	read -r _ name flags faults exps <<<"$line"
	[[ $flags == - ]] && flags=
	shift
	for seed in "$@"; do
		echo "matrix: $name seed $seed" >&2
		# $flags and $exps split into words on purpose.
		go run ./cmd/ccbench -quick -check $flags -faults "seed=$seed,$faults" $exps
	done
}

case ${1:-} in
list)
	table | awk '{ printf "%s\"%s\"", (NR > 1 ? "," : "["), $2 } END { print "]" }'
	;;
run)
	[[ $# -ge 2 ]] || usage
	row=$2
	shift 2
	[[ $# -gt 0 ]] || set -- 1 2 3
	run_row "$row" "$@"
	;;
slice)
	for row in $(table | awk '$1 == "*" { print $2 }'); do
		run_row "$row" 1
	done
	;;
*)
	usage
	;;
esac
