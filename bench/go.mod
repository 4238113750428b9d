module webcluster/bench

go 1.22

require webcluster v0.0.0

replace webcluster => ../
