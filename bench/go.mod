module prism/bench

go 1.22

require prism v0.0.0

replace prism => ../
