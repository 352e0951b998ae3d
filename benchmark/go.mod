module rads/benchmark

go 1.24

require rads v0.0.0

replace rads => ../
