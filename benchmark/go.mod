module mocha/benchmark

go 1.22

require mocha v0.0.0

replace mocha => ../
