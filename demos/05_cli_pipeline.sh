#!/bin/sh
# End-to-end command-line pipeline: simulate a benchmark, train, predict on
# the held-out split, evaluate, and export Kaplan-Meier curves per
# predicted cluster; then simulate again from the first run's manifest and
# check that the tables are the same bytes. Everything is seeded, so
# rerunning this script reproduces every output byte-for-byte.
set -e

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

cat > run.cfg <<'EOF'
# generator
num_samples = 1000
num_features = 30
num_clusters = 3
test_fraction = 0.3
# model
latent_dim = 8
enc_hidden = 64,64
dec_hidden = 64,64
epochs = 40
batch_size = 256
learning_rate = 0.001
seed = 0
EOF

survmix simulate --kind synthetic --config run.cfg --out data
survmix train    --data data/train.csv --config run.cfg --out model.ckpt
survmix predict  --checkpoint model.ckpt --data data/test.csv --out pred.csv
survmix evaluate --predictions pred.csv --data data/test.csv --out report.txt
survmix km-export --predictions pred.csv --data data/test.csv --out km.csv

# simulate's manifest is a run config: it simulates the same tables again
survmix simulate --kind synthetic --config data/manifest --out data2
cmp data/train.csv data2/train.csv
cmp data/test.csv data2/test.csv

echo "--- report.txt ---"
cat report.txt
echo "--- first prediction rows ---"
head -4 pred.csv | cut -d, -f1-6
echo "--- Kaplan-Meier export (first rows) ---"
head -5 km.csv
