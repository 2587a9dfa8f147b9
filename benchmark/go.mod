module qsense/benchmark

go 1.24

require qsense v0.0.0

replace qsense => ../
