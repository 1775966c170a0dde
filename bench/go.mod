module fedsu/bench

go 1.22

require fedsu v0.0.0

replace fedsu => ../
