#!/bin/sh
# Build, test and validate the benchmark (run from anywhere in the checkout).
set -eu
cd "$(dirname "$0")/.."
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test --release --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- validate
