module dynacc

go 1.23
