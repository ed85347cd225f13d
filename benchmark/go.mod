module mvolap/benchmark

go 1.22

require mvolap v0.0.0

replace mvolap => ../
