module gcassert/benchmark

go 1.22

require gcassert v0.0.0

replace gcassert => ../
