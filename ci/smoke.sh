#!/usr/bin/env bash
# Entry-point smoke test: runs the CLI as a user would, through the console
# script and the module entry point, and checks outputs and exit codes.
#
# Usage: ci/smoke.sh WORKDIR
#
# The commands run inside WORKDIR, which is created if missing. RADIOMAP is
# the command that runs the CLI: the installed console script by default. For
# a checkout that is not installed, put its src on PYTHONPATH and set
# RADIOMAP="python -m radiomap". The shell options are GitHub Actions' own
# for a bash step, so a command that fails outside an `|| rc=$?` fails the run.
set -eo pipefail

workdir=${1:?usage: ci/smoke.sh WORKDIR}
mkdir -p "$workdir"
cd "$workdir"
radiomap() { ${RADIOMAP:-command radiomap} "$@"; }

radiomap --help
python -m radiomap --help
# importing the package loads no scipy: only the calls that use it import it
python -c "import sys, radiomap; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
printf 'scene.h=16\nscene.w=16\nscene.k_bands=3\n' > scene.cfg
printf 'admm.max_iters=5\n' > solve.cfg
radiomap gen --spec scene.cfg --out scene
# generating a scene loads no scipy either: the shadowing filter is numpy only
python -c "import sys; from radiomap import cli; rc = cli.main(['gen', '--spec', 'scene.cfg', '--out', 'scene-py']); sys.exit(rc or any(m.split('.')[0] == 'scipy' for m in sys.modules))"
radiomap sample --tensor scene/ground_truth.rmt --percent 20 --seed 1 --out mask.rmm
radiomap solve --method admm --tensor scene/ground_truth.rmt --mask mask.rmm \
  --config solve.cfg --out est.rmt
radiomap eval --est est.rmt --truth scene/ground_truth.rmt
# halrtc.* settings reach solve_halrtc through config.halrtc_params
printf 'halrtc.max_iters=5\n' > halrtc.cfg
radiomap solve --method halrtc --tensor scene/ground_truth.rmt --mask mask.rmm \
  --config halrtc.cfg --out halrtc.rmt
radiomap eval --est halrtc.rmt --truth scene/ground_truth.rmt
radiomap solve --method ldpl --tensor scene/ground_truth.rmt --mask mask.rmm \
  --out ldpl.rmt
radiomap eval --est ldpl.rmt --truth scene/ground_truth.rmt
printf 'halrtc.rho=0\n' > badrho.cfg
rc=0
radiomap solve --method halrtc --tensor scene/ground_truth.rmt --mask mask.rmm \
  --config badrho.cfg --out badrho.rmt || rc=$?
test "$rc" -eq 5
# the RBF solve loads scipy's LAPACK wrapper module, not the
# scipy.linalg package
python -c "import sys; from radiomap import cli; rc = cli.main(['solve', '--method', 'rbf', '--tensor', 'scene/ground_truth.rmt', '--mask', 'mask.rmm', '--out', 'rbf-py.rmt']); sys.exit(rc or 'scipy.linalg' in sys.modules or 'scipy.linalg._flapack' not in sys.modules)"
# the RBF baseline's packed kernel at an odd and an even observed
# count: 20 % of 16x16 is 51 cells, 25 % is 64
radiomap solve --method rbf --tensor scene/ground_truth.rmt --mask mask.rmm \
  --out rbf51.rmt
radiomap eval --est rbf51.rmt --truth scene/ground_truth.rmt
radiomap sample --tensor scene/ground_truth.rmt --percent 25 --seed 1 --out mask64.rmm
radiomap solve --method rbf --tensor scene/ground_truth.rmt --mask mask64.rmm \
  --out rbf64.rmt
radiomap eval --est rbf64.rmt --truth scene/ground_truth.rmt
# train on a two-scene dataset directory, then infer with the checkpoint
printf 'scene.h=16\nscene.w=16\nscene.k_bands=3\nscene.seed=2\n' > scene2.cfg
printf 'train.epochs=1\n' > train.cfg
radiomap gen --spec scene2.cfg --out scene2
mkdir ds
cp scene/ground_truth.rmt ds/a.rmt
cp mask.rmm ds/a.rmm
cp scene2/ground_truth.rmt ds/b.rmt
radiomap sample --tensor ds/b.rmt --percent 30 --seed 2 --out ds/b.rmm
radiomap train --dataset ds --config train.cfg --out model.rmu
# training loads scipy's BLAS wrapper module for conv2d's dgemm, not
# the scipy.linalg package
python -c "import sys; from radiomap import cli; rc = cli.main(['train', '--dataset', 'ds', '--config', 'train.cfg', '--out', 'model-py.rmu']); sys.exit(rc or 'scipy.linalg' in sys.modules or 'scipy.linalg._fblas' not in sys.modules)"
# the console script and cli.main train the same model to the same bytes
cmp model.rmu model-py.rmu
radiomap solve --method unroll --model model.rmu --tensor scene/ground_truth.rmt \
  --mask mask.rmm --out unroll.rmt
radiomap eval --est unroll.rmt --truth scene/ground_truth.rmt
# at 64x64 the default 16->16 mapper layers split into row blocks, so
# training and inference run conv2d's blocked path (sliced F-order
# accumulators handed to scipy's dgemm) through the installed package
mkdir ds64
for s in 3 4; do
  printf "scene.h=64\nscene.w=64\nscene.k_bands=3\nscene.seed=$s\n" > scene64.cfg
  radiomap gen --spec scene64.cfg --out scene64-$s
  cp scene64-$s/ground_truth.rmt ds64/s$s.rmt
  radiomap sample --tensor ds64/s$s.rmt --percent 10 --seed $s --out ds64/s$s.rmm
done
# HaLRTC at its default halrtc.* settings, 64x64 at 10 %: the
# accelerated loop stops on its change test before the cap
radiomap solve --method halrtc --tensor ds64/s3.rmt --mask ds64/s3.rmm \
  --out halrtc64.rmt > halrtc64.log
cat halrtc64.log
grep -q '^solve: halrtc converged after' halrtc64.log
radiomap eval --est halrtc64.rmt --truth ds64/s3.rmt
# solve_admm at its default admm.* settings on the same scene: its
# accelerated tail runs to the 140-iteration cap
radiomap solve --method admm --tensor ds64/s3.rmt --mask ds64/s3.rmm \
  --out admm64.rmt > admm64.log
cat admm64.log
grep -q '^solve: admm stopped at the iteration cap after 140 iterations' admm64.log
radiomap eval --est admm64.rmt --truth ds64/s3.rmt
radiomap train --dataset ds64 --config train.cfg --out model64.rmu
radiomap solve --method unroll --model model64.rmu --tensor ds64/s3.rmt \
  --mask ds64/s3.rmm --out unroll64.rmt
radiomap eval --est unroll64.rmt --truth ds64/s3.rmt
# conv2d reads the previous layer's padded output only when the kernels
# match: one 1x1 layer pads its input, 5x5 layers chain their buffers
for mapper in 'unroll.kernel=1\nunroll.hidden_channels=\n' 'unroll.kernel=5\n'; do
  printf "train.epochs=1\n$mapper" > mapper.cfg
  radiomap train --dataset ds --config mapper.cfg --out mapper.rmu
  radiomap solve --method unroll --model mapper.rmu --tensor scene/ground_truth.rmt \
    --mask mask.rmm --out mapper.rmt
  radiomap eval --est mapper.rmt --truth scene/ground_truth.rmt
done
# there is no release step: forward frees each value once its code
# drops it and no backward closure reads it. With one or two blocks
# the final state comes from the first blocks, and these runs check
# that its values survive forward into training and inference
for k in 1 2; do
  printf "train.epochs=1\nunroll.k_blocks=$k\n" > blocks.cfg
  radiomap train --dataset ds --config blocks.cfg --out blocks$k.rmu
  radiomap solve --method unroll --model blocks$k.rmu --tensor scene/ground_truth.rmt \
    --mask mask.rmm --out blocks$k.rmt
  radiomap eval --est blocks$k.rmt --truth scene/ground_truth.rmt
done
# a diverging 3-block training run is a numerical failure, exit 4
printf 'unroll.k_blocks=3\ntrain.epochs=20\ntrain.lr=1e6\n' > diverge.cfg
rc=0
radiomap train --dataset ds --config diverge.cfg --out diverge.rmu || rc=$?
test "$rc" -eq 4
# a sweep that succeeds writes the report header and one finite row
# per method: one 16x16 scene, one sparsity, one seed, four methods
printf 'scene.h=16\nscene.w=16\nscene.k_bands=3\nsweep.n_scenes=1\nsweep.sparsities=20\nsweep.seeds=1\nsweep.methods=zero,ldpl,halrtc,admm\nadmm.max_iters=5\nhalrtc.max_iters=5\n' > sweep.cfg
radiomap sweep --config sweep.cfg --out sweep.csv
cat sweep.csv
python -c "import sys; from radiomap import io; lines = open('sweep.csv').read().splitlines(); sys.exit(lines[0] != io.REPORT_HEADER or len(lines) != 5 or any('nan' in l.lower() for l in lines[1:]))"
# an empty sweep axis would sweep nothing: a config error, exit 5
printf 'scene.h=16\nscene.w=16\nsweep.sparsities=\n' > empty.cfg
rc=0
radiomap sweep --config empty.cfg --out empty.csv || rc=$?
test "$rc" -eq 5
# zero fill refuses a mask that selects no cell, as every estimator does
python -c "import numpy as np; from radiomap import io, tensors; io.write_mask('none.rmm', tensors.ObservationMask(np.zeros((16, 16), dtype=bool)))"
rc=0
radiomap solve --method zero --tensor scene/ground_truth.rmt --mask none.rmm \
  --out none.rmt || rc=$?
test "$rc" -eq 2
# a 3-band model on 1-band scenes is refused before the first solve
printf 'scene.h=16\nscene.w=16\nscene.k_bands=1\nsweep.n_scenes=1\nsweep.methods=unroll\nsweep.model=model64.rmu\n' > bands.cfg
rc=0
radiomap sweep --config bands.cfg --out bands.csv || rc=$?
test "$rc" -eq 2
rc=0
radiomap solve --method zero --tensor scene/ground_truth.rmt --mask mask.rmm \
  --out missing/est.rmt || rc=$?
test "$rc" -eq 2
# an input path through a regular file, and a binary file read as a config
rc=0
radiomap eval --est scene.cfg/x.rmt --truth scene/ground_truth.rmt || rc=$?
test "$rc" -eq 2
rc=0
radiomap solve --method zero --tensor scene/ground_truth.rmt --mask mask.rmm \
  --config scene/ground_truth.rmt --out x.rmt || rc=$?
test "$rc" -eq 5
# a file name over 255 bytes, and a path through a symbolic-link loop
long=$(printf 'a%.0s' $(seq 300))
rc=0
radiomap sample --tensor scene/ground_truth.rmt --percent 20 --seed 1 \
  --out "$long.rmm" || rc=$?
test "$rc" -eq 2
ln -s loopb loopa
ln -s loopa loopb
rc=0
radiomap eval --est loopa --truth scene/ground_truth.rmt || rc=$?
test "$rc" -eq 2
