module alveare/benchmark

go 1.22

require alveare v0.0.0

replace alveare => ../
