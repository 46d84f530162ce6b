module mfv/bench/e2e

go 1.22

require mfv v0.0.0

replace mfv => ../..
