module tmesh/bench

go 1.22

require tmesh v0.0.0

replace tmesh => ../
