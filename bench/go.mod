module bdbms/bench

go 1.24

require bdbms v0.0.0

replace bdbms => ../
