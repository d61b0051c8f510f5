module wavescalar/bench

go 1.24

require wavescalar v0.0.0

replace wavescalar => ../
