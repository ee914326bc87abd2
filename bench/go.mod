module optcc/bench

go 1.24

require optcc v0.0.0

replace optcc => ../
