#!/bin/sh
# Regenerates every figure at paper scale. Output: results/figNN.tsv
set -e
cd "$(dirname "$0")/.."
go build -o /tmp/rekeysim ./cmd/rekeysim
/tmp/rekeysim fig6 -points 20  > results/fig6.tsv
/tmp/rekeysim fig9 -points 20  > results/fig9.tsv
/tmp/rekeysim fig7 -points 20  > results/fig7.tsv
/tmp/rekeysim fig10 -points 20 > results/fig10.tsv
/tmp/rekeysim fig14 -points 20 > results/fig14.tsv
/tmp/rekeysim joincost         > results/joincost.tsv
/tmp/rekeysim fig8 -points 20  > results/fig8.tsv
/tmp/rekeysim fig11 -points 20 > results/fig11.tsv
/tmp/rekeysim fig13            > results/fig13.tsv
/tmp/rekeysim ablation         > results/ablation.tsv
/tmp/rekeysim packets          > results/packets.tsv
/tmp/rekeysim loss             > results/loss.tsv
/tmp/rekeysim gnp              > results/gnp.tsv
/tmp/rekeysim congestion       > results/congestion.tsv
/tmp/rekeysim fig12 -runs 3    > results/fig12.tsv
echo DONE
