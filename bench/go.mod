module nowrender/bench

go 1.22

require nowrender v0.0.0

replace nowrender => ../
