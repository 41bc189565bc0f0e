module fixture

go 1.23
